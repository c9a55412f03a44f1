//! Reading and writing the AIGER formats: ASCII (`.aag`) and binary (`.aig`).
//!
//! Only the combinational subset (no latches) is supported, which is all the
//! refactoring flow needs.  Both writers emit nodes in topological order so
//! the output satisfies the AIGER ordering requirement; they share one
//! canonicalization, so converting between the formats is lossless down to
//! the node numbering.
//!
//! The binary format is the one real EPFL/ABC dumps ship in: the header says
//! `aig` instead of `aag`, input definitions are implicit, and each AND gate
//! is stored as two LEB128-style variable-length deltas
//! (`lhs - rhs0`, `rhs0 - rhs1`) instead of an ASCII line — typically 2–3
//! bytes per gate.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::aig::Aig;
use crate::lit::{Lit, NodeId};

/// Error produced when parsing an AIGER file fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError {
    message: String,
    line: usize,
}

impl ParseAigerError {
    fn new(message: impl Into<String>, line: usize) -> Self {
        ParseAigerError {
            message: message.into(),
            line,
        }
    }

    /// The 1-based line on which the error occurred (0 for header-level errors).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid AIGER input at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseAigerError {}

/// Implementation limit on the number of AIGER variables a parsed file may
/// declare (2²⁶ ≈ 67 M — two orders of magnitude above the largest EPFL
/// benchmark).  The parsers allocate an index-to-literal table sized by the
/// header's declared maximum, so without a cap a 20-byte crafted header
/// could demand a multi-gigabyte allocation before any content is read.
const MAX_DECLARED_VARS: u32 = 1 << 26;

/// Validates a header's declared variable count against
/// [`MAX_DECLARED_VARS`].
fn check_declared_vars(max_var: u32) -> Result<(), ParseAigerError> {
    if max_var > MAX_DECLARED_VARS {
        return Err(ParseAigerError::new(
            format!("header declares {max_var} variables (limit {MAX_DECLARED_VARS})"),
            1,
        ));
    }
    Ok(())
}

/// An AIG canonicalized for serialization: compacted (re-strashed) so node
/// indices are dense, with AIGER variable indices assigned inputs-first and
/// then AND nodes in topological order — the numbering both the ASCII and
/// the binary writer share.
struct Canonical {
    compact: Aig,
    order: Vec<NodeId>,
    var_of_node: Vec<u32>,
}

impl Canonical {
    fn build(aig: &Aig) -> Self {
        let compact = aig.restrash();
        let order = compact.topological_order();
        let mut var_of_node = vec![0u32; compact.num_slots()];
        for (i, input) in compact.inputs().iter().enumerate() {
            var_of_node[input.as_usize()] = (i + 1) as u32;
        }
        for (i, id) in order.iter().enumerate() {
            var_of_node[id.as_usize()] = (compact.num_inputs() + i + 1) as u32;
        }
        Canonical {
            compact,
            order,
            var_of_node,
        }
    }

    fn lit_of(&self, lit: Lit) -> u32 {
        if lit.node().is_const0() {
            lit.is_complemented() as u32
        } else {
            2 * self.var_of_node[lit.node().as_usize()] + lit.is_complemented() as u32
        }
    }

    fn max_var(&self) -> usize {
        self.compact.num_inputs() + self.order.len()
    }

    fn header(&self, format: &str) -> String {
        format!(
            "{format} {} {} 0 {} {}\n",
            self.max_var(),
            self.compact.num_inputs(),
            self.compact.num_outputs(),
            self.order.len()
        )
    }

    /// The AND definition of `id`: `(lhs, rhs0, rhs1)` with the AIGER
    /// ordering requirement `lhs > rhs0 >= rhs1` already applied.
    fn and_literals(&self, id: NodeId) -> (u32, u32, u32) {
        let (f0, f1) = self.compact.fanins(id);
        let lhs = 2 * self.var_of_node[id.as_usize()];
        let (a, b) = (self.lit_of(f0), self.lit_of(f1));
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        (lhs, hi, lo)
    }
}

/// Serializes the AIG to the ASCII AIGER format.
///
/// The graph is compacted (re-strashed) first so that node indices are dense
/// and topologically ordered, as the format requires.  This materializes the
/// whole image in memory; prefer [`write_ascii_to`] (or
/// [`write_ascii_file`], which buffers through it) for million-node dumps.
pub fn to_ascii(aig: &Aig) -> String {
    let mut out = Vec::new();
    write_ascii_to(aig, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("ASCII AIGER output is valid UTF-8")
}

/// Streams the AIG in ASCII AIGER format into `writer`, producing exactly the
/// bytes [`to_ascii`] would return without building the full image in memory.
///
/// The writer is used line-by-line; wrap files in a
/// [`BufWriter`] (as [`write_ascii_file`] does).
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_ascii_to(aig: &Aig, writer: &mut impl Write) -> io::Result<()> {
    let canonical = Canonical::build(aig);
    writer.write_all(canonical.header("aag").as_bytes())?;
    for i in 0..canonical.compact.num_inputs() {
        writeln!(writer, "{}", 2 * (i + 1))?;
    }
    for output in canonical.compact.outputs() {
        writeln!(writer, "{}", canonical.lit_of(*output))?;
    }
    for id in &canonical.order {
        let (lhs, hi, lo) = canonical.and_literals(*id);
        writeln!(writer, "{lhs} {hi} {lo}")?;
    }
    if !canonical.compact.name().is_empty() {
        writeln!(writer, "c\n{}", canonical.compact.name())?;
    }
    Ok(())
}

/// Serializes the AIG to the binary AIGER (`aig`) format.
///
/// Same canonicalization as [`to_ascii`] — the two outputs describe the
/// identical network with the identical variable numbering — but AND gates
/// are delta-encoded: for each gate, `lhs - rhs0` and `rhs0 - rhs1` as
/// 7-bit variable-length integers (high bit = continuation).  Input
/// definitions are implicit in the binary format.
pub fn to_binary(aig: &Aig) -> Vec<u8> {
    let mut out = Vec::new();
    write_binary_to(aig, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Streams the AIG in binary AIGER format into `writer`, producing exactly
/// the bytes [`to_binary`] would return without building the full image in
/// memory.
///
/// The writer is used in small increments; wrap files in a
/// [`BufWriter`] (as [`write_binary_file`] does).
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_binary_to(aig: &Aig, writer: &mut impl Write) -> io::Result<()> {
    let canonical = Canonical::build(aig);
    writer.write_all(canonical.header("aig").as_bytes())?;
    for output in canonical.compact.outputs() {
        writeln!(writer, "{}", canonical.lit_of(*output))?;
    }
    for id in &canonical.order {
        let (lhs, hi, lo) = canonical.and_literals(*id);
        debug_assert!(lhs > hi && hi >= lo, "topological order violated");
        write_delta(writer, lhs - hi)?;
        write_delta(writer, hi - lo)?;
    }
    if !canonical.compact.name().is_empty() {
        writeln!(writer, "c\n{}", canonical.compact.name())?;
    }
    Ok(())
}

/// Writes a LEB128-style variable-length delta (7 bits per byte, high bit
/// set on every byte but the last).
fn write_delta(writer: &mut impl Write, mut delta: u32) -> io::Result<()> {
    // At most five bytes for a u32.
    let mut buf = [0u8; 5];
    let mut len = 0;
    loop {
        let byte = (delta & 0x7F) as u8;
        delta >>= 7;
        if delta == 0 {
            buf[len] = byte;
            len += 1;
            break;
        }
        buf[len] = byte | 0x80;
        len += 1;
    }
    writer.write_all(&buf[..len])
}

/// Reads one variable-length delta starting at `*pos`, advancing it.
fn read_delta(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseAigerError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or_else(|| {
            ParseAigerError::new("unexpected end of file inside the binary AND section", 0)
        })? as u64;
        *pos += 1;
        if shift > 28 {
            return Err(ParseAigerError::new("delta encoding exceeds 32 bits", 0));
        }
        value |= (byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return u32::try_from(value)
                .map_err(|_| ParseAigerError::new("delta encoding exceeds 32 bits", 0));
        }
        shift += 7;
    }
}

/// Parses an ASCII AIGER (`aag`) description into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] if the header is malformed, the file contains
/// latches, literals are out of range, or an AND definition references an
/// undefined literal.
pub fn from_ascii(text: &str) -> Result<Aig, ParseAigerError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseAigerError::new("empty input", 0))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(ParseAigerError::new("header must be `aag M I L O A`", 1));
    }
    let parse = |s: &str, line: usize| {
        s.parse::<u32>()
            .map_err(|_| ParseAigerError::new(format!("invalid number `{s}`"), line))
    };
    let max_var = parse(fields[1], 1)?;
    let num_inputs = parse(fields[2], 1)?;
    let num_latches = parse(fields[3], 1)?;
    let num_outputs = parse(fields[4], 1)?;
    let num_ands = parse(fields[5], 1)?;
    if num_latches != 0 {
        return Err(ParseAigerError::new(
            "sequential AIGER files (latches) are not supported",
            1,
        ));
    }
    check_declared_vars(max_var)?;
    if num_inputs
        .checked_add(num_ands)
        .is_none_or(|total| max_var < total)
    {
        return Err(ParseAigerError::new("maximum variable index too small", 1));
    }

    let mut aig = Aig::new();
    // Map from AIGER variable index to literal in our graph.
    let mut lit_of_var: Vec<Option<Lit>> = vec![None; (max_var + 1) as usize];
    lit_of_var[0] = Some(Lit::FALSE);

    let take_line = |lines: &mut std::iter::Enumerate<std::str::Lines<'_>>| {
        for (idx, line) in lines.by_ref() {
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok((idx + 1, trimmed.to_string()));
            }
        }
        Err(ParseAigerError::new("unexpected end of file", 0))
    };

    // Inputs.
    for _ in 0..num_inputs {
        let (line_no, line) = take_line(&mut lines)?;
        let raw = parse(&line, line_no)?;
        if raw % 2 != 0 || raw == 0 {
            return Err(ParseAigerError::new(
                "input literal must be even and nonzero",
                line_no,
            ));
        }
        let lit = aig.add_input();
        let var = (raw / 2) as usize;
        if var >= lit_of_var.len() || lit_of_var[var].is_some() {
            return Err(ParseAigerError::new(
                "duplicate or out-of-range input",
                line_no,
            ));
        }
        lit_of_var[var] = Some(lit);
    }

    // Outputs are recorded and resolved after the AND section.
    let mut output_raws = Vec::with_capacity(num_outputs as usize);
    for _ in 0..num_outputs {
        let (line_no, line) = take_line(&mut lines)?;
        output_raws.push((line_no, parse(&line, line_no)?));
    }

    // AND definitions.
    for _ in 0..num_ands {
        let (line_no, line) = take_line(&mut lines)?;
        let nums: Vec<&str> = line.split_whitespace().collect();
        if nums.len() != 3 {
            return Err(ParseAigerError::new(
                "AND line must have three literals",
                line_no,
            ));
        }
        let lhs = parse(nums[0], line_no)?;
        let rhs0 = parse(nums[1], line_no)?;
        let rhs1 = parse(nums[2], line_no)?;
        if lhs % 2 != 0 {
            return Err(ParseAigerError::new(
                "AND output literal must be even",
                line_no,
            ));
        }
        let resolve = |raw: u32| -> Result<Lit, ParseAigerError> {
            let var = (raw / 2) as usize;
            lit_of_var
                .get(var)
                .copied()
                .flatten()
                .map(|lit| lit.complement_if(raw % 2 == 1))
                .ok_or_else(|| {
                    ParseAigerError::new(format!("literal {raw} used before definition"), line_no)
                })
        };
        let a = resolve(rhs0)?;
        let b = resolve(rhs1)?;
        let lit = aig.and(a, b);
        let var = (lhs / 2) as usize;
        if var >= lit_of_var.len() || lit_of_var[var].is_some() {
            return Err(ParseAigerError::new(
                "duplicate or out-of-range AND definition",
                line_no,
            ));
        }
        lit_of_var[var] = Some(lit);
    }

    for (line_no, raw) in output_raws {
        let var = (raw / 2) as usize;
        let lit = lit_of_var
            .get(var)
            .copied()
            .flatten()
            .map(|lit| lit.complement_if(raw % 2 == 1))
            .ok_or_else(|| {
                ParseAigerError::new(format!("undefined output literal {raw}"), line_no)
            })?;
        aig.add_output(lit);
    }

    // Optional comment section carries the design name.
    let rest: Vec<&str> = lines.map(|(_, l)| l).collect();
    if let Some(pos) = rest.iter().position(|l| l.trim() == "c") {
        if let Some(name) = rest.get(pos + 1) {
            aig.set_name(name.trim());
        }
    }
    Ok(aig)
}

/// Parses a binary AIGER (`aig`) buffer into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] if the header is malformed, the file contains
/// latches, the gate section is truncated, or a delta breaks the AIGER
/// ordering requirement `lhs > rhs0 >= rhs1`.
pub fn from_binary(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    fn take_text_line(
        bytes: &[u8],
        pos: &mut usize,
        what: &str,
    ) -> Result<String, ParseAigerError> {
        let start = *pos;
        let end = bytes[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|offset| start + offset)
            .ok_or_else(|| ParseAigerError::new(format!("unexpected end of file in {what}"), 0))?;
        *pos = end + 1;
        String::from_utf8(bytes[start..end].to_vec())
            .map_err(|_| ParseAigerError::new(format!("non-UTF-8 text in {what}"), 0))
    }

    let mut pos = 0usize;
    let header = take_text_line(bytes, &mut pos, "header")?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aig" {
        return Err(ParseAigerError::new("header must be `aig M I L O A`", 1));
    }
    let parse = |s: &str| {
        s.parse::<u32>()
            .map_err(|_| ParseAigerError::new(format!("invalid number `{s}`"), 1))
    };
    let max_var = parse(fields[1])?;
    let num_inputs = parse(fields[2])?;
    let num_latches = parse(fields[3])?;
    let num_outputs = parse(fields[4])?;
    let num_ands = parse(fields[5])?;
    if num_latches != 0 {
        return Err(ParseAigerError::new(
            "sequential AIGER files (latches) are not supported",
            1,
        ));
    }
    check_declared_vars(max_var)?;
    // The binary format requires contiguous variable numbering: inputs are
    // 1..=I implicitly, ANDs are I+1..=I+A in definition order.  Checked
    // addition: a crafted header must not wrap around into a "valid" M.
    if num_inputs
        .checked_add(num_ands)
        .is_none_or(|total| max_var != total)
    {
        return Err(ParseAigerError::new("binary AIGER requires M = I + A", 1));
    }
    // Every AND costs at least two delta bytes, so the gate section alone
    // bounds the plausible file size — reject headers that promise more
    // gates than the buffer could possibly hold before allocating for them.
    if (num_ands as usize)
        .checked_mul(2)
        .is_none_or(|g| g > bytes.len())
    {
        return Err(ParseAigerError::new(
            "header declares more AND gates than the file can contain",
            1,
        ));
    }
    // Inputs are implicit in the binary format: they cost no bytes, but each
    // costs a node.  The ANDs and outputs reference at most 2·A + O of them,
    // so a header promising far more (say `aig 16777216 16777216 0 0 0`, 28
    // bytes for a gigabyte of inputs) describes no circuit worth building.
    let referenced = 2 * u64::from(num_ands) + u64::from(num_outputs);
    if u64::from(num_inputs) > referenced.max(1 << 16) {
        return Err(ParseAigerError::new(
            "header declares more inputs than its gates and outputs can reference",
            1,
        ));
    }

    let mut aig = Aig::new();
    let mut lit_of_var: Vec<Option<Lit>> = vec![None; (max_var + 1) as usize];
    lit_of_var[0] = Some(Lit::FALSE);
    for var in 1..=num_inputs {
        lit_of_var[var as usize] = Some(aig.add_input());
    }

    // Output literals are ASCII lines; they may reference AND variables
    // defined later, so resolve them after the gate section.
    let mut output_raws = Vec::with_capacity(num_outputs as usize);
    for index in 0..num_outputs {
        let line = take_text_line(bytes, &mut pos, "output section")?;
        let raw = line.trim().parse::<u32>().map_err(|_| {
            ParseAigerError::new(
                format!("invalid output literal `{}`", line.trim()),
                (index + 2) as usize,
            )
        })?;
        output_raws.push(raw);
    }

    for index in 0..num_ands {
        let lhs = 2 * (num_inputs + index + 1);
        let delta0 = read_delta(bytes, &mut pos)?;
        let delta1 = read_delta(bytes, &mut pos)?;
        let rhs0 = lhs
            .checked_sub(delta0)
            .filter(|_| delta0 >= 1)
            .ok_or_else(|| {
                ParseAigerError::new(format!("AND {lhs}: delta {delta0} breaks lhs > rhs0"), 0)
            })?;
        let rhs1 = rhs0.checked_sub(delta1).ok_or_else(|| {
            ParseAigerError::new(format!("AND {lhs}: delta {delta1} breaks rhs0 >= rhs1"), 0)
        })?;
        let resolve = |raw: u32| -> Result<Lit, ParseAigerError> {
            lit_of_var
                .get((raw / 2) as usize)
                .copied()
                .flatten()
                .map(|lit| lit.complement_if(raw % 2 == 1))
                .ok_or_else(|| {
                    ParseAigerError::new(format!("literal {raw} used before definition"), 0)
                })
        };
        let a = resolve(rhs0)?;
        let b = resolve(rhs1)?;
        let lit = aig.and(a, b);
        lit_of_var[(lhs / 2) as usize] = Some(lit);
    }

    for raw in output_raws {
        let lit = lit_of_var
            .get((raw / 2) as usize)
            .copied()
            .flatten()
            .map(|lit| lit.complement_if(raw % 2 == 1))
            .ok_or_else(|| ParseAigerError::new(format!("undefined output literal {raw}"), 0))?;
        aig.add_output(lit);
    }

    // Optional comment section carries the design name, as in ASCII.
    if bytes.get(pos) == Some(&b'c') && bytes.get(pos + 1) == Some(&b'\n') {
        pos += 2;
        if let Ok(name) = take_text_line(bytes, &mut pos, "comment section") {
            aig.set_name(name.trim());
        }
    }
    Ok(aig)
}

/// Writes the AIG to `path` in ASCII AIGER format, streaming through a
/// [`BufWriter`] so the full image is never materialized in memory.
///
/// # Errors
///
/// Returns any I/O error from the filesystem.
pub fn write_ascii_file(aig: &Aig, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut writer = BufWriter::new(fs::File::create(path)?);
    write_ascii_to(aig, &mut writer)?;
    writer.flush()
}

/// Reads an ASCII AIGER file from `path`.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, or a boxed
/// [`ParseAigerError`] if its contents are not valid AIGER.
pub fn read_ascii_file(path: impl AsRef<Path>) -> Result<Aig, Box<dyn Error + Send + Sync>> {
    let text = fs::read_to_string(path)?;
    Ok(from_ascii(&text)?)
}

/// Writes the AIG to `path` in binary AIGER format, streaming through a
/// [`BufWriter`] so the full image is never materialized in memory.
///
/// # Errors
///
/// Returns any I/O error from the filesystem.
pub fn write_binary_file(aig: &Aig, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut writer = BufWriter::new(fs::File::create(path)?);
    write_binary_to(aig, &mut writer)?;
    writer.flush()
}

/// Reads a binary AIGER file from `path`.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, or a boxed
/// [`ParseAigerError`] if its contents are not valid binary AIGER.
pub fn read_binary_file(path: impl AsRef<Path>) -> Result<Aig, Box<dyn Error + Send + Sync>> {
    let bytes = fs::read(path)?;
    Ok(from_binary(&bytes)?)
}

/// Reads an AIGER file of either format, dispatching on the header magic
/// (`aag` = ASCII, `aig` = binary) — the convenient entry point for loading
/// real EPFL dumps whose extension may not match their contents.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, or a boxed
/// [`ParseAigerError`] if its contents are valid in neither format.
pub fn read_file(path: impl AsRef<Path>) -> Result<Aig, Box<dyn Error + Send + Sync>> {
    let bytes = fs::read(path)?;
    if bytes.starts_with(b"aig ") {
        return Ok(from_binary(&bytes)?);
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| ParseAigerError::new("non-UTF-8 contents without an `aig` header", 0))?;
    Ok(from_ascii(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{check_equivalence, EquivalenceResult};

    fn sample_aig() -> Aig {
        let mut aig = Aig::with_name("sample");
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let t = aig.xor(a, b);
        let f = aig.mux(c, t, a);
        aig.add_output(f);
        aig.add_output(!t);
        aig
    }

    #[test]
    fn round_trip_preserves_function() {
        let aig = sample_aig();
        let text = to_ascii(&aig);
        let parsed = from_ascii(&text).expect("round trip parse");
        assert_eq!(parsed.num_inputs(), aig.num_inputs());
        assert_eq!(parsed.num_outputs(), aig.num_outputs());
        assert_eq!(
            check_equivalence(&aig, &parsed, 4, 3),
            EquivalenceResult::Equivalent
        );
        assert_eq!(parsed.name(), "sample");
    }

    #[test]
    fn parses_minimal_and_gate() {
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n";
        let aig = from_ascii(text).expect("parse");
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_ands(), 1);
        assert_eq!(aig.evaluate(&[true, true]), vec![true]);
        assert_eq!(aig.evaluate(&[true, false]), vec![false]);
    }

    #[test]
    fn parses_constant_outputs() {
        let text = "aag 1 1 0 2 0\n2\n0\n1\n";
        let aig = from_ascii(text).expect("parse");
        assert_eq!(aig.evaluate(&[false]), vec![false, true]);
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 3 1 1 1 0\n2\n4 2\n4\n";
        let err = from_ascii(text).unwrap_err();
        assert!(err.to_string().contains("latches"));
    }

    #[test]
    fn rejects_malformed_header() {
        assert!(from_ascii("aig 1 1 0 1 0\n").is_err());
        assert!(from_ascii("").is_err());
        assert!(from_ascii("aag 0 0 0\n").is_err());
    }

    #[test]
    fn rejects_use_before_definition() {
        // AND node references variable 3 which is never defined.
        let text = "aag 3 1 0 1 1\n2\n4\n4 6 2\n";
        assert!(from_ascii(text).is_err());
    }

    #[test]
    fn file_round_trip() {
        let aig = sample_aig();
        let dir = std::env::temp_dir().join("elf_aig_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.aag");
        write_ascii_file(&aig, &path).unwrap();
        let parsed = read_ascii_file(&path).unwrap();
        assert_eq!(
            check_equivalence(&aig, &parsed, 4, 3),
            EquivalenceResult::Equivalent
        );
    }

    /// A denser circuit whose delta encoding exercises multi-byte varints.
    fn wide_aig() -> Aig {
        let mut aig = Aig::with_name("wide");
        let inputs: Vec<_> = (0..8).map(|_| aig.add_input()).collect();
        let mut layer = inputs.clone();
        for round in 0..6 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let combined = if pair.len() == 2 {
                    if round % 2 == 0 {
                        aig.xor(pair[0], pair[1])
                    } else {
                        aig.mux(pair[0], pair[1], inputs[round % 8])
                    }
                } else {
                    pair[0]
                };
                next.push(combined);
            }
            next.push(aig.maj(layer[0], layer[1 % layer.len()], inputs[round % 8]));
            layer = next;
        }
        for lit in &layer {
            aig.add_output(*lit);
        }
        aig
    }

    #[test]
    fn binary_round_trip_preserves_function_and_name() {
        for aig in [sample_aig(), wide_aig()] {
            let bytes = to_binary(&aig);
            let parsed = from_binary(&bytes).expect("binary round trip");
            assert_eq!(parsed.num_inputs(), aig.num_inputs());
            assert_eq!(parsed.num_outputs(), aig.num_outputs());
            assert_eq!(parsed.name(), aig.name());
            assert_eq!(
                check_equivalence(&aig, &parsed, 8, 5),
                EquivalenceResult::Equivalent
            );
        }
    }

    #[test]
    fn binary_and_ascii_describe_the_identical_network() {
        // Both writers share one canonicalization, so converting through the
        // binary format and re-serializing as ASCII reproduces the ASCII
        // serialization byte for byte — same numbering, node for node.
        for aig in [sample_aig(), wide_aig()] {
            let ascii = to_ascii(&aig);
            let through_binary = to_ascii(&from_binary(&to_binary(&aig)).unwrap());
            assert_eq!(ascii, through_binary);
        }
    }

    #[test]
    fn streaming_writers_match_materializing_writers() {
        // `write_*_to` must emit byte for byte what `to_*` returns (the file
        // writers stream through the former, callers may compare the latter).
        for aig in [sample_aig(), wide_aig()] {
            let mut ascii = Vec::new();
            write_ascii_to(&aig, &mut ascii).unwrap();
            assert_eq!(ascii, to_ascii(&aig).into_bytes());
            let mut binary = Vec::new();
            write_binary_to(&aig, &mut binary).unwrap();
            assert_eq!(binary, to_binary(&aig));
        }
    }

    #[test]
    fn binary_is_smaller_than_ascii_on_gate_heavy_circuits() {
        let aig = wide_aig();
        assert!(aig.num_ands() > 20, "test circuit should be gate-heavy");
        let binary = to_binary(&aig);
        let ascii = to_ascii(&aig);
        assert!(
            binary.len() < ascii.len(),
            "binary ({}) should beat ASCII ({})",
            binary.len(),
            ascii.len()
        );
    }

    #[test]
    fn binary_parses_handwritten_minimal_and_gate() {
        // aig 3 2 0 1 1: single AND 6 = 4 & 2 -> deltas 2 and 2.
        let bytes = b"aig 3 2 0 1 1\n6\n\x02\x02";
        let aig = from_binary(bytes).expect("parse");
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_ands(), 1);
        assert_eq!(aig.evaluate(&[true, true]), vec![true]);
        assert_eq!(aig.evaluate(&[true, false]), vec![false]);
    }

    #[test]
    fn binary_rejects_malformed_input() {
        // ASCII magic in a binary parse.
        assert!(from_binary(b"aag 3 2 0 1 1\n6\n\x02\x02").is_err());
        // Latches are unsupported.
        assert!(from_binary(b"aig 3 1 1 1 0\n2\n4 2\n4\n").is_err());
        // Binary numbering must be contiguous: M != I + A.
        assert!(from_binary(b"aig 7 2 0 1 1\n6\n\x02\x02").is_err());
        // Truncated gate section.
        assert!(from_binary(b"aig 3 2 0 1 1\n6\n\x02").is_err());
        // A zero first delta breaks lhs > rhs0.
        assert!(from_binary(b"aig 3 2 0 1 1\n6\n\x00\x02").is_err());
        // Delta underflow breaks rhs0 >= rhs1.
        assert!(from_binary(b"aig 3 2 0 1 1\n6\n\x02\x7F").is_err());
        // Unterminated varint at end of file.
        assert!(from_binary(b"aig 3 2 0 1 1\n6\n\x82").is_err());
        // Empty input.
        assert!(from_binary(b"").is_err());
    }

    #[test]
    fn hostile_headers_error_instead_of_panicking_or_allocating() {
        // I + A wraps around u32 to a "valid" M = 1: must error, not index
        // out of bounds.
        assert!(from_binary(b"aig 1 4294967295 0 0 2\n").is_err());
        // A header demanding a multi-gigabyte variable table from a
        // 20-byte file: rejected by the declared-variable limit.
        assert!(from_binary(b"aig 4294967294 4294967294 0 0 0\n").is_err());
        assert!(from_ascii("aag 4294967294 4294967294 0 0 0\n").is_err());
        // More gates than the buffer could possibly encode.
        assert!(from_binary(b"aig 67108862 2 0 0 67108860\n").is_err());
        // Sixteen million implicit inputs from 28 bytes: more inputs than
        // any gate or output could reference.
        assert!(from_binary(b"aig 16777216 16777216 0 0 0\n").is_err());
        // ASCII overflow of I + A likewise errors.
        assert!(from_ascii("aag 1 4294967295 0 0 2\n").is_err());
    }

    #[test]
    fn binary_file_round_trip_and_format_auto_detection() {
        let aig = wide_aig();
        let dir = std::env::temp_dir().join("elf_aig_test");
        std::fs::create_dir_all(&dir).unwrap();
        let binary_path = dir.join("sample.aig");
        write_binary_file(&aig, &binary_path).unwrap();
        let parsed = read_binary_file(&binary_path).unwrap();
        assert_eq!(
            check_equivalence(&aig, &parsed, 8, 7),
            EquivalenceResult::Equivalent
        );
        // `read_file` dispatches on the header magic for both formats.
        let ascii_path = dir.join("sample_auto.aag");
        write_ascii_file(&aig, &ascii_path).unwrap();
        for path in [&binary_path, &ascii_path] {
            let auto = read_file(path).unwrap();
            assert_eq!(
                check_equivalence(&aig, &auto, 8, 9),
                EquivalenceResult::Equivalent
            );
        }
    }
}
