//! Span tracing: RAII guards recording into per-thread ring buffers, gated
//! by the `ELF_TRACE` environment variable, exported as Chrome
//! `trace_event` JSON.
//!
//! # Gating
//!
//! Tracing is **off by default** — a disabled [`Span`] is a branch and a
//! `None`, so instrumented hot paths cost nothing measurable and the
//! determinism fingerprints of the stack stay untouched.  Set `ELF_TRACE=1`
//! (any non-empty value other than `0`) before the first span, or call
//! [`force_enable`] from a test.
//!
//! # Model
//!
//! A [`Span`] records a *complete* event (name, wall-clock start/end, two
//! global sequence numbers, key/value args) into its thread's bounded ring
//! buffer when the guard drops — an in-flight guard contributes nothing, so
//! an export never sees a half-open span.  [`JobScope`] tags every span
//! recorded on the current thread with a served job id; the exporter groups
//! spans by `(job, thread)` and orders groups by job id, making the
//! exported timeline deterministic in structure even though workers race.
//!
//! # Examples
//!
//! ```
//! use elf_obs::trace;
//!
//! trace::force_enable();
//! {
//!     let _job = trace::JobScope::enter(7);
//!     let _span = elf_obs::span!("rf", node_count = 123);
//! }
//! let json = trace::export_chrome_json();
//! assert!(json.contains("\"rf\""));
//! trace::force_disable();
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Samples one thread's ring buffer holds before the oldest are dropped.
pub const RING_CAPACITY: usize = 1 << 16;

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static TRACE_STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static SEQ: AtomicU64 = AtomicU64::new(0);
static THREAD_IDS: AtomicUsize = AtomicUsize::new(0);

/// Whether span recording is currently on (first call reads `ELF_TRACE`).
pub fn enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = std::env::var("ELF_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
            TRACE_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns span recording on regardless of `ELF_TRACE` (for tests).
pub fn force_enable() {
    TRACE_STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Turns span recording off regardless of `ELF_TRACE`.
pub fn force_disable() {
    TRACE_STATE.store(STATE_OFF, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// One recorded (completed) span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name (`"rf"`, `"job"`, `"forward"`, …).
    pub name: &'static str,
    /// Served-job id the span was recorded under, if any (see [`JobScope`]).
    pub job: Option<u64>,
    /// Recording thread (small dense id, not the OS tid).
    pub thread: usize,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// End, microseconds since the process trace epoch.
    pub end_us: u64,
    /// Global sequence number taken at span entry.
    pub start_seq: u64,
    /// Global sequence number taken at span exit (`> start_seq`).
    pub end_seq: u64,
    /// Integer-valued args attached via `span!("name", key = value)`.
    pub args: Vec<(&'static str, i64)>,
}

struct Buffer {
    thread: usize,
    events: Mutex<VecDeque<SpanEvent>>,
    dropped: AtomicU64,
}

fn buffers() -> &'static Mutex<Vec<Arc<Buffer>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<Buffer>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_BUFFER: Arc<Buffer> = {
        let buffer = Arc::new(Buffer {
            thread: THREAD_IDS.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        });
        buffers()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&buffer));
        buffer
    };
    static CURRENT_JOB: Cell<Option<u64>> = const { Cell::new(None) };
}

fn push_event(mut event: SpanEvent) {
    LOCAL_BUFFER.with(|buffer| {
        event.thread = buffer.thread;
        event.job = CURRENT_JOB.get();
        let mut events = buffer.events.lock().unwrap_or_else(PoisonError::into_inner);
        if events.len() >= RING_CAPACITY {
            events.pop_front();
            buffer.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    });
}

/// Tags every span recorded on this thread with a served-job id until the
/// guard drops (restoring the previous tag, so scopes nest).  Works — and
/// costs two `Cell` writes — whether or not tracing is enabled.
#[derive(Debug)]
pub struct JobScope {
    prev: Option<u64>,
}

impl JobScope {
    /// Starts tagging spans on this thread with `job`.
    pub fn enter(job: u64) -> JobScope {
        JobScope {
            prev: CURRENT_JOB.replace(Some(job)),
        }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        CURRENT_JOB.set(self.prev);
    }
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    start_us: u64,
    start_seq: u64,
    args: Vec<(&'static str, i64)>,
}

/// An RAII span guard: created by [`span!`](crate::span), records one
/// [`SpanEvent`] when dropped.  Disabled guards are inert.
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// An inert guard that records nothing (what [`span!`](crate::span)
    /// returns while tracing is off).
    pub fn disabled() -> Span {
        Span { active: None }
    }

    /// Opens a span with no args.
    pub fn enter(name: &'static str) -> Span {
        Span::enter_with(name, Vec::new())
    }

    /// Opens a span carrying integer args.  Checks [`enabled`] itself, but
    /// callers building an args `Vec` should check first (the
    /// [`span!`](crate::span) macro does) to keep the disabled path
    /// allocation-free.
    pub fn enter_with(name: &'static str, args: Vec<(&'static str, i64)>) -> Span {
        if !enabled() {
            return Span::disabled();
        }
        Span {
            active: Some(ActiveSpan {
                name,
                start_us: now_us(),
                start_seq: next_seq(),
                args,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            push_event(SpanEvent {
                name: active.name,
                job: None, // filled by push_event
                thread: 0, // filled by push_event
                start_us: active.start_us,
                end_us: now_us(),
                start_seq: active.start_seq,
                end_seq: next_seq(),
                args: active.args,
            });
        }
    }
}

/// Records a leaf span that *ended now* and started `elapsed_us` earlier —
/// for phases whose start happened on another thread (a job's admission
/// wait starts at submission, ends when a worker dequeues it).
pub fn record_past(name: &'static str, elapsed_us: u64, args: Vec<(&'static str, i64)>) {
    if !enabled() {
        return;
    }
    let end_us = now_us();
    let start_seq = next_seq();
    push_event(SpanEvent {
        name,
        job: None,
        thread: 0,
        start_us: end_us.saturating_sub(elapsed_us),
        end_us,
        start_seq,
        end_seq: next_seq(),
        args,
    });
}

/// Drains every thread's ring buffer, returning all completed spans.
pub fn take_events() -> Vec<SpanEvent> {
    let buffers = buffers().lock().unwrap_or_else(PoisonError::into_inner);
    let mut all = Vec::new();
    for buffer in buffers.iter() {
        let mut events = buffer.events.lock().unwrap_or_else(PoisonError::into_inner);
        all.extend(events.drain(..));
    }
    all
}

/// Total spans discarded (ring buffers full) since the process started.
pub fn dropped_spans() -> u64 {
    buffers()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|b| b.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Drains every buffer and discards the events (test isolation helper).
pub fn clear() {
    drop(take_events());
}

/// Drains every buffer and renders the spans as Chrome `trace_event` JSON
/// (load the string into `chrome://tracing` or Perfetto).  Spans are
/// grouped per `(job, thread)` run and groups ordered by job id — spans
/// recorded outside any job come last — so the export is
/// structurally deterministic for a deterministic workload.
pub fn export_chrome_json() -> String {
    crate::chrome::render_chrome(&take_events())
}
