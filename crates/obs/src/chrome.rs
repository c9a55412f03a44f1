//! Chrome `trace_event` JSON: rendering recorded spans for
//! `chrome://tracing` / Perfetto, plus a dependency-free parser and a
//! nesting validator used by the round-trip tests and the `ELF_TRACE`
//! smoke in CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::SpanEvent;

/// One parsed `trace_event` entry (`ph` is `B` or `E`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name.
    pub name: String,
    /// Phase: `'B'` (begin) or `'E'` (end).
    pub ph: char,
    /// Process id (always 1 in our exports).
    pub pid: i64,
    /// Thread lane the event renders on.
    pub tid: i64,
    /// Microseconds since the trace epoch.
    pub ts: i64,
    /// Integer args (`job`, plus whatever `span!` attached).
    pub args: Vec<(String, i64)>,
}

/// Renders completed spans as a Chrome `trace_event` JSON document.
///
/// Spans are bucketed into runs of consecutive same-job spans per thread,
/// runs are ordered by `(job id, thread, sequence)` with job-less
/// infrastructure spans last, and each run is emitted as a properly nested
/// `B`/`E` stream reconstructed from the spans' entry/exit sequence
/// numbers.  The result is structurally deterministic for a deterministic
/// workload.
pub fn render_chrome(events: &[SpanEvent]) -> String {
    // Per-thread span lists, ordered by entry sequence.
    let mut per_thread: BTreeMap<usize, Vec<&SpanEvent>> = BTreeMap::new();
    for event in events {
        per_thread.entry(event.thread).or_default().push(event);
    }
    // Runs of consecutive same-job spans within one thread.
    let mut groups: Vec<(u64, usize, u64, Vec<&SpanEvent>)> = Vec::new();
    for (thread, mut spans) in per_thread {
        spans.sort_by_key(|s| s.start_seq);
        for span in spans {
            let job_key = span.job.unwrap_or(u64::MAX);
            match groups.last_mut() {
                Some((key, t, _, run)) if *key == job_key && *t == thread => run.push(span),
                _ => groups.push((job_key, thread, span.start_seq, vec![span])),
            }
        }
    }
    groups.sort_by_key(|&(job, thread, first_seq, _)| (job, thread, first_seq));

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (_, thread, _, run) in &groups {
        // Reconstruct nesting from sequence numbers: a span whose exit
        // sequence precedes the next span's entry closed before it opened.
        let mut stack: Vec<(&SpanEvent, u64)> = Vec::new();
        for span in run {
            while stack
                .last()
                .is_some_and(|&(_, end_seq)| end_seq < span.start_seq)
            {
                if let Some((closed, _)) = stack.pop() {
                    emit_event(&mut out, &mut first, closed, *thread, 'E');
                }
            }
            emit_event(&mut out, &mut first, span, *thread, 'B');
            stack.push((span, span.end_seq));
        }
        while let Some((closed, _)) = stack.pop() {
            emit_event(&mut out, &mut first, closed, *thread, 'E');
        }
    }
    out.push_str("\n]}\n");
    out
}

fn emit_event(out: &mut String, first: &mut bool, span: &SpanEvent, thread: usize, ph: char) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let ts = if ph == 'B' {
        span.start_us
    } else {
        span.end_us
    };
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"elf\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{thread},\"ts\":{ts}",
        escape(span.name)
    );
    if ph == 'B' {
        out.push_str(",\"args\":{");
        let mut first_arg = true;
        if let Some(job) = span.job {
            let _ = write!(out, "\"job\":{job}");
            first_arg = false;
        }
        for (key, value) in &span.args {
            if !first_arg {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{value}", escape(key));
            first_arg = false;
        }
        out.push('}');
    }
    out.push('}');
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON parsing — just enough to round-trip our own exports.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.  The input is already a
                    // `&str`, so slicing at `pos` decodes just that scalar —
                    // re-validating the whole remaining document here made
                    // parsing quadratic.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.error("invalid utf8 in string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

fn field<'j>(obj: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses a Chrome `trace_event` JSON document (the object form with a
/// `traceEvents` array) back into its `B`/`E` events.
///
/// # Errors
///
/// Returns a message naming the first malformed construct.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    let Json::Obj(fields) = root else {
        return Err("trace root is not an object".to_string());
    };
    let Some(Json::Arr(items)) = field(&fields, "traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Json::Obj(entry) = item else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let str_field = |key: &str| match field(entry, key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("traceEvents[{i}].{key} missing or not a string")),
        };
        let num_field = |key: &str| match field(entry, key) {
            Some(Json::Num(n)) => Ok(*n as i64),
            _ => Err(format!("traceEvents[{i}].{key} missing or not a number")),
        };
        let ph_text = str_field("ph")?;
        let ph = ph_text
            .chars()
            .next()
            .ok_or_else(|| format!("traceEvents[{i}].ph empty"))?;
        let mut args = Vec::new();
        if let Some(Json::Obj(arg_fields)) = field(entry, "args") {
            for (key, value) in arg_fields {
                if let Json::Num(n) = value {
                    args.push((key.clone(), *n as i64));
                }
            }
        }
        events.push(TraceEvent {
            name: str_field("name")?,
            ph,
            pid: num_field("pid")?,
            tid: num_field("tid")?,
            ts: num_field("ts")?,
            args,
        });
    }
    Ok(events)
}

/// Validates that a `B`/`E` event stream nests correctly on every
/// `(pid, tid)` lane: every `E` closes the innermost open `B` of the same
/// name at a non-earlier timestamp, and nothing is left open.  Returns the
/// number of complete spans.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate_nesting(events: &[TraceEvent]) -> Result<usize, String> {
    let mut stacks: BTreeMap<(i64, i64), Vec<(&str, i64)>> = BTreeMap::new();
    let mut spans = 0usize;
    for (i, event) in events.iter().enumerate() {
        let stack = stacks.entry((event.pid, event.tid)).or_default();
        match event.ph {
            'B' => stack.push((event.name.as_str(), event.ts)),
            'E' => match stack.pop() {
                Some((name, ts)) => {
                    if name != event.name {
                        return Err(format!(
                            "event {i}: E `{}` closes B `{name}` on tid {}",
                            event.name, event.tid
                        ));
                    }
                    if event.ts < ts {
                        return Err(format!(
                            "event {i}: span `{name}` ends at {} before it starts at {ts}",
                            event.ts
                        ));
                    }
                    spans += 1;
                }
                None => {
                    return Err(format!(
                        "event {i}: E `{}` with no open span on tid {}",
                        event.name, event.tid
                    ))
                }
            },
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    for ((_, tid), stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("span `{name}` left open on tid {tid}"));
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        job: Option<u64>,
        thread: usize,
        seqs: (u64, u64),
        times: (u64, u64),
    ) -> SpanEvent {
        SpanEvent {
            name,
            job,
            thread,
            start_us: times.0,
            end_us: times.1,
            start_seq: seqs.0,
            end_seq: seqs.1,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_and_sibling_spans_round_trip() {
        let events = vec![
            span("job", Some(3), 0, (0, 5), (0, 100)),
            span("rf", Some(3), 0, (1, 2), (10, 40)),
            span("rw", Some(3), 0, (3, 4), (50, 90)),
        ];
        let json = render_chrome(&events);
        let parsed = parse_trace(&json).expect("parses");
        assert_eq!(validate_nesting(&parsed), Ok(3));
        // `rf` and `rw` are siblings inside `job`: B job, B rf, E rf, B rw...
        let order: Vec<(char, &str)> = parsed.iter().map(|e| (e.ph, e.name.as_str())).collect();
        assert_eq!(
            order,
            vec![
                ('B', "job"),
                ('B', "rf"),
                ('E', "rf"),
                ('B', "rw"),
                ('E', "rw"),
                ('E', "job"),
            ]
        );
    }

    #[test]
    fn a_twenty_thousand_span_document_round_trips() {
        // Parsing used to re-validate the whole remaining document for every
        // string character — quadratic, minutes at this size — so finishing
        // at all is the guard.  The non-ASCII name keeps the multi-byte
        // scalar path covered.
        const JOBS: u64 = 200;
        const STAGES: u64 = 99;
        let mut events = Vec::new();
        for job in 0..JOBS {
            let base = job * 2 * (STAGES + 1);
            events.push(span(
                "job",
                Some(job),
                0,
                (base, base + 2 * STAGES + 1),
                (base, base + 2 * STAGES + 1),
            ));
            for stage in 0..STAGES {
                let at = base + 1 + 2 * stage;
                events.push(span("étape", Some(job), 0, (at, at + 1), (at, at + 1)));
            }
        }
        assert_eq!(events.len(), 20_000);
        let parsed = parse_trace(&render_chrome(&events)).expect("parses");
        assert_eq!(validate_nesting(&parsed), Ok(20_000));
        assert_eq!(parsed[1].name, "étape");
    }

    #[test]
    fn groups_order_by_job_id_with_jobless_last() {
        let events = vec![
            span("batch", None, 1, (4, 5), (0, 1)),
            span("job", Some(9), 0, (2, 3), (0, 1)),
            span("job", Some(2), 2, (0, 1), (0, 1)),
        ];
        let json = render_chrome(&events);
        let parsed = parse_trace(&json).expect("parses");
        let begins: Vec<i64> = parsed
            .iter()
            .filter(|e| e.ph == 'B')
            .map(|e| {
                e.args
                    .iter()
                    .find(|(k, _)| k == "job")
                    .map_or(-1, |&(_, v)| v)
            })
            .collect();
        assert_eq!(begins, vec![2, 9, -1]);
    }

    #[test]
    fn validator_rejects_mismatched_and_unbalanced_streams() {
        let bad = vec![TraceEvent {
            name: "x".into(),
            ph: 'E',
            pid: 1,
            tid: 0,
            ts: 0,
            args: vec![],
        }];
        assert!(validate_nesting(&bad).is_err());
        let open = vec![TraceEvent {
            name: "x".into(),
            ph: 'B',
            pid: 1,
            tid: 0,
            ts: 0,
            args: vec![],
        }];
        assert!(validate_nesting(&open).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let json =
            "{\"traceEvents\":[{\"name\":\"a\\\"b\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":7}]}";
        let parsed = parse_trace(json).expect("parses");
        assert_eq!(parsed[0].name, "a\"b");
        assert_eq!(parsed[0].ts, 7);
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{}").is_err());
    }
}
