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
//!
//! Both readers share one core — the header checks, the variable table, the
//! literal resolution and the tail that adds the outputs and reads the `c`
//! name section — and keep only their own loops.  The input is untrusted, so
//! **nothing is sized by a header field**: outputs are pushed as they parse,
//! and the variable table grows as the file defines variables — a dense
//! prefix while they come roughly in order, a map past it — so its memory
//! follows the variables defined, not the indices named or the header's M.
//! The binary format's implicit inputs, the one thing built without reading
//! a byte per item, are bounded by what the gates and outputs can reference,
//! and those by the bytes present.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
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

    /// The 1-based line on which the error occurred (0 for errors at the end
    /// of the input or inside the binary gate section).
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

/// Implementation limit on the largest AIGER variable index a file may
/// declare (2²⁶ ≈ 67 M — two orders of magnitude above the largest EPFL
/// benchmark).  A file may define any variable up to its declared M.
const MAX_DECLARED_VARS: u32 = 1 << 26;

/// Variables the reader's dense table may run ahead of twice the count
/// defined, so files with small gaps in their numbering stay dense.
const DENSE_SLACK: usize = 1 << 16;

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

    fn header(&self, magic: &str) -> String {
        let (inputs, ands) = (self.compact.num_inputs(), self.order.len());
        let outputs = self.compact.num_outputs();
        format!("{magic} {} {inputs} 0 {outputs} {ands}\n", inputs + ands)
    }

    /// The output lines, which both formats write as text.
    fn outputs(&self) -> String {
        let lits = self.compact.outputs().iter().map(|&lit| self.lit_of(lit));
        lits.map(|lit| format!("{lit}\n")).collect()
    }

    /// The AND definitions as `(lhs, rhs0, rhs1)` in variable order, with the
    /// AIGER ordering requirement `lhs > rhs0 >= rhs1` already applied.
    fn ands(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.order.iter().map(|&id| {
            let (f0, f1) = self.compact.fanins(id);
            let (a, b) = (self.lit_of(f0), self.lit_of(f1));
            (2 * self.var_of_node[id.as_usize()], a.max(b), a.min(b))
        })
    }

    /// The comment section carrying the design name, empty when it has none.
    fn tail(&self) -> String {
        match self.compact.name() {
            "" => String::new(),
            name => format!("c\n{name}\n"),
        }
    }
}

/// Serializes the AIG to the ASCII AIGER format.
///
/// The graph is compacted (re-strashed) first so that node indices are dense
/// and topologically ordered, as the format requires.
pub fn to_ascii(aig: &Aig) -> String {
    let canonical = Canonical::build(aig);
    let mut out = canonical.header("aag");
    for var in 1..=canonical.compact.num_inputs() {
        out += &format!("{}\n", 2 * var);
    }
    out += &canonical.outputs();
    for (lhs, hi, lo) in canonical.ands() {
        out += &format!("{lhs} {hi} {lo}\n");
    }
    out + &canonical.tail()
}

/// Writes the bytes [`to_ascii`] returns into `writer`.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_ascii_to(aig: &Aig, writer: &mut impl Write) -> io::Result<()> {
    writer.write_all(to_ascii(aig).as_bytes())
}

/// Serializes the AIG to the binary AIGER (`aig`) format.
///
/// Same canonicalization as [`to_ascii`] — the two outputs describe the
/// identical network with the identical variable numbering — but AND gates
/// are delta-encoded: for each gate, `lhs - rhs0` and `rhs0 - rhs1` as
/// 7-bit variable-length integers (high bit = continuation).  Input
/// definitions are implicit in the binary format.
pub fn to_binary(aig: &Aig) -> Vec<u8> {
    let canonical = Canonical::build(aig);
    let mut out = (canonical.header("aig") + &canonical.outputs()).into_bytes();
    for (lhs, hi, lo) in canonical.ands() {
        debug_assert!(lhs > hi && hi >= lo, "topological order violated");
        for mut delta in [lhs - hi, hi - lo] {
            while delta >= 0x80 {
                out.push((delta & 0x7F) as u8 | 0x80);
                delta >>= 7;
            }
            out.push(delta as u8);
        }
    }
    out.extend_from_slice(canonical.tail().as_bytes());
    out
}

/// Writes the bytes [`to_binary`] returns into `writer`.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_binary_to(aig: &Aig, writer: &mut impl Write) -> io::Result<()> {
    writer.write_all(&to_binary(aig))
}

/// A position in either format's bytes, with the number of the line read
/// last.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor {
            bytes,
            pos: 0,
            line: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseAigerError {
        ParseAigerError::new(message, self.line)
    }

    /// The bytes after the last line or delta read.
    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// The next non-blank text line, trimmed.
    fn text_line(&mut self) -> Result<&'a str, ParseAigerError> {
        while !self.rest().is_empty() {
            let rest = self.rest();
            let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            self.pos += (len + 1).min(rest.len());
            self.line += 1;
            let text =
                std::str::from_utf8(&rest[..len]).map_err(|_| self.error("non-UTF-8 text"))?;
            if !text.trim().is_empty() {
                return Ok(text.trim());
            }
        }
        Err(ParseAigerError::new("unexpected end of file", 0))
    }

    /// The next text line as exactly `N` numbers, after the word `magic`
    /// when one is given; `shape` names the expected line in errors.
    fn numbers<const N: usize>(
        &mut self,
        magic: Option<&str>,
        shape: &str,
    ) -> Result<[u32; N], ParseAigerError> {
        let mut fields = self.text_line()?.split_whitespace();
        let malformed = || self.error(format!("line must be `{shape}`"));
        if magic.is_some_and(|magic| fields.next() != Some(magic)) {
            return Err(malformed());
        }
        let mut numbers = [0u32; N];
        for slot in &mut numbers {
            let field = fields.next().ok_or_else(malformed)?;
            *slot = field
                .parse()
                .map_err(|_| self.error(format!("invalid number `{field}`")))?;
        }
        match fields.next() {
            Some(_) => Err(malformed()),
            None => Ok(numbers),
        }
    }

    /// One LEB128-style delta of the binary gate section.
    fn delta(&mut self) -> Result<u32, ParseAigerError> {
        let mut value = 0u64;
        for shift in [0, 7, 14, 21, 28] {
            let byte = *self.bytes.get(self.pos).ok_or_else(|| {
                ParseAigerError::new("unexpected end of file inside the binary AND section", 0)
            })?;
            self.pos += 1;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return u32::try_from(value)
                    .map_err(|_| ParseAigerError::new("delta encoding exceeds 32 bits", 0));
            }
        }
        Err(ParseAigerError::new("delta encoding exceeds 32 bits", 0))
    }
}

/// What both readers build: the graph, the table from AIGER variable to
/// literal, and the outputs, whose literals may name gates defined after them.
struct Reader {
    aig: Aig,
    /// The header's M: the largest variable the file may define.
    max_var: u32,
    /// Each variable's literal, `None` until defined, over a prefix of the
    /// variables that grows as the file defines them but never past
    /// [`DENSE_SLACK`] plus twice the count defined: a file that names one
    /// huge index costs one `sparse` entry, not a table up to it.
    lits: Vec<Option<Lit>>,
    /// The defined variables beyond `lits`.
    sparse: HashMap<u32, Lit>,
    /// Variables defined so far.
    defined: usize,
    /// `(raw literal, line)` of each output read so far.
    outputs: Vec<(u32, usize)>,
}

impl Reader {
    /// Reads a `magic M I L O A` header and checks what both formats
    /// require: no latches, M within [`MAX_DECLARED_VARS`] and I + A ≤ M.
    /// Returns the reader with `(I, O, A)`.
    fn start(cursor: &mut Cursor<'_>, magic: &str) -> Result<(Self, [u32; 3]), ParseAigerError> {
        let shape = format!("{magic} M I L O A");
        let [max_var, inputs, latches, outputs, ands] = cursor.numbers(Some(magic), &shape)?;
        if latches != 0 {
            return Err(cursor.error("sequential AIGER files (latches) are not supported"));
        }
        if max_var > MAX_DECLARED_VARS {
            return Err(cursor.error(format!(
                "header declares {max_var} variables (limit {MAX_DECLARED_VARS})"
            )));
        }
        if inputs.checked_add(ands).is_none_or(|total| total > max_var) {
            return Err(cursor.error("maximum variable index too small"));
        }
        let reader = Reader {
            aig: Aig::new(),
            max_var,
            lits: vec![Some(Lit::FALSE)],
            sparse: HashMap::new(),
            defined: 0,
            outputs: Vec::new(),
        };
        Ok((reader, [inputs, outputs, ands]))
    }

    fn lookup(&self, var: u32) -> Option<Lit> {
        let dense = self.lits.get(var as usize).copied().flatten();
        dense.or_else(|| self.sparse.get(&var).copied())
    }

    fn define(&mut self, var: u32, lit: Lit, line: usize) -> Result<(), ParseAigerError> {
        if var > self.max_var || self.lookup(var).is_some() {
            return Err(ParseAigerError::new(
                format!("variable {var} defined twice or beyond M"),
                line,
            ));
        }
        self.defined += 1;
        let slot = var as usize;
        if slot >= self.lits.len() && slot <= 2 * self.defined + DENSE_SLACK {
            self.lits.resize(slot + 1, None);
        }
        match self.lits.get_mut(slot) {
            Some(entry) => *entry = Some(lit),
            None => {
                self.sparse.insert(var, lit);
            }
        }
        Ok(())
    }

    fn input(&mut self, var: u32, line: usize) -> Result<(), ParseAigerError> {
        let lit = self.aig.add_input();
        self.define(var, lit, line)
    }

    fn and(&mut self, lhs: u32, rhs0: u32, rhs1: u32, line: usize) -> Result<(), ParseAigerError> {
        let a = self.resolve(rhs0, line)?;
        let b = self.resolve(rhs1, line)?;
        let lit = self.aig.and(a, b);
        self.define(lhs / 2, lit, line)
    }

    fn resolve(&self, raw: u32, line: usize) -> Result<Lit, ParseAigerError> {
        self.lookup(raw / 2)
            .map(|lit| lit.complement_if(raw % 2 == 1))
            .ok_or_else(|| ParseAigerError::new(format!("literal {raw} is not defined"), line))
    }

    /// Adds the outputs in the order they were read, then takes the design
    /// name from the line after a `c` line in `rest`, if there is one.
    fn finish(mut self, rest: &[u8]) -> Result<Aig, ParseAigerError> {
        for &(raw, line) in &self.outputs {
            let lit = self.resolve(raw, line)?;
            self.aig.add_output(lit);
        }
        let mut lines = rest.split(|&b| b == b'\n');
        if lines.by_ref().any(|line| line.trim_ascii() == b"c") {
            if let Some(name) = lines.next().and_then(|line| std::str::from_utf8(line).ok()) {
                self.aig.set_name(name.trim());
            }
        }
        Ok(self.aig)
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
    let mut cursor = Cursor::new(text.as_bytes());
    let (mut reader, [inputs, outputs, ands]) = Reader::start(&mut cursor, "aag")?;
    for _ in 0..inputs {
        let [raw] = cursor.numbers(None, "input literal")?;
        if raw % 2 != 0 || raw == 0 {
            return Err(cursor.error("input literal must be even and nonzero"));
        }
        reader.input(raw / 2, cursor.line)?;
    }
    for _ in 0..outputs {
        let [raw] = cursor.numbers(None, "output literal")?;
        reader.outputs.push((raw, cursor.line));
    }
    for _ in 0..ands {
        let [lhs, rhs0, rhs1] = cursor.numbers(None, "lhs rhs0 rhs1")?;
        if lhs % 2 != 0 {
            return Err(cursor.error("AND output literal must be even"));
        }
        reader.and(lhs, rhs0, rhs1, cursor.line)?;
    }
    reader.finish(cursor.rest())
}

/// Parses a binary AIGER (`aig`) buffer into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] if the header is malformed, the file contains
/// latches, the gate section is truncated, or a delta breaks the AIGER
/// ordering requirement `lhs > rhs0 >= rhs1`.
pub fn from_binary(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    let mut cursor = Cursor::new(bytes);
    let (mut reader, [inputs, outputs, ands]) = Reader::start(&mut cursor, "aig")?;
    // Inputs are 1..=I and ANDs I+1..=I+A, in definition order.
    if reader.max_var != inputs + ands {
        return Err(cursor.error("binary AIGER requires M = I + A"));
    }
    // Every output is a line of at least two bytes and every AND at least two
    // delta bytes, so the bytes left bound both counts.
    if 2 * (u64::from(outputs) + u64::from(ands)) > cursor.rest().len() as u64 {
        return Err(cursor.error("header declares more outputs and ANDs than the file holds"));
    }
    // Implicit inputs cost no bytes but a node each; the ANDs and outputs
    // reference at most 2·A + O of them, so a header promising far more
    // (say `aig 16777216 16777216 0 0 0`, 28 bytes for a gigabyte of inputs)
    // describes no circuit worth building.
    if u64::from(inputs) > (2 * u64::from(ands) + u64::from(outputs)).max(1 << 16) {
        return Err(cursor.error("header declares more inputs than its ANDs and outputs reference"));
    }
    for var in 1..=inputs {
        reader.input(var, cursor.line)?;
    }
    for _ in 0..outputs {
        let [raw] = cursor.numbers(None, "output literal")?;
        reader.outputs.push((raw, cursor.line));
    }
    for var in inputs + 1..=reader.max_var {
        let lhs = 2 * var;
        let delta0 = cursor.delta()?;
        let delta1 = cursor.delta()?;
        let rhs0 = lhs
            .checked_sub(delta0)
            .filter(|_| delta0 >= 1)
            .ok_or_else(|| {
                ParseAigerError::new(format!("AND {lhs}: delta {delta0} breaks lhs > rhs0"), 0)
            })?;
        let rhs1 = rhs0.checked_sub(delta1).ok_or_else(|| {
            ParseAigerError::new(format!("AND {lhs}: delta {delta1} breaks rhs0 >= rhs1"), 0)
        })?;
        reader.and(lhs, rhs0, rhs1, 0)?;
    }
    reader.finish(cursor.rest())
}

/// Writes the AIG to `path` in ASCII AIGER format.
///
/// # Errors
///
/// Returns any I/O error from the filesystem.
pub fn write_ascii_file(aig: &Aig, path: impl AsRef<Path>) -> std::io::Result<()> {
    fs::write(path, to_ascii(aig))
}

/// Writes the AIG to `path` in binary AIGER format.
///
/// # Errors
///
/// Returns any I/O error from the filesystem.
pub fn write_binary_file(aig: &Aig, path: impl AsRef<Path>) -> std::io::Result<()> {
    fs::write(path, to_binary(aig))
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
        let parsed = read_file(&path).unwrap();
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
        // Four billion outputs from 23 bytes: nothing is reserved for them.
        // ASCII runs out of lines; binary has too few bytes left to hold them.
        assert!(from_ascii("aag 0 0 0 4294967295 0\n").is_err());
        assert!(from_binary(b"aig 0 0 0 4294967295 0\n").is_err());
        // Implicit inputs bounded by an output count the file cannot hold.
        assert!(from_binary(b"aig 67108864 67108864 0 67108864 0\n").is_err());
    }

    #[test]
    fn binary_file_round_trip_and_format_auto_detection() {
        let aig = wide_aig();
        let dir = std::env::temp_dir().join("elf_aig_test");
        std::fs::create_dir_all(&dir).unwrap();
        let binary_path = dir.join("sample.aig");
        write_binary_file(&aig, &binary_path).unwrap();
        let parsed = read_file(&binary_path).unwrap();
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
