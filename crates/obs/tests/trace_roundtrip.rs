//! Trace facade round-trip: spans recorded on several threads under job
//! scopes export to Chrome `trace_event` JSON that parses back and nests.
//!
//! Serial by necessity — the trace buffers are process-global, so this is
//! the only test binary in the crate that enables tracing.

use std::sync::Mutex;
use std::thread;

use elf_obs::chrome::{parse_trace, validate_nesting};
use elf_obs::trace;

/// The trace buffers and the enable flag are process-global: tests touching
/// them take this lock so the parallel test runner cannot interleave them.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn multi_thread_job_spans_export_parse_and_nest() {
    let _serial = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::force_enable();
    trace::clear();

    let workers: Vec<_> = (0..3u64)
        .map(|job| {
            thread::spawn(move || {
                let _scope = trace::JobScope::enter(job);
                let _job_span = elf_obs::span!("job", id = job);
                trace::record_past("queue_wait", 50, Vec::new());
                for stage in ["rf", "rw", "rs"] {
                    let _stage = elf_obs::span!(stage, nodes = 10 + job);
                    let _inner = elf_obs::span!("factor");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker panicked");
    }
    // A span recorded outside any job.
    {
        let _scrape = elf_obs::span!("scrape", rows = 4);
    }

    let json = trace::export_chrome_json();
    trace::force_disable();

    let events = parse_trace(&json).expect("export must parse");
    let spans = validate_nesting(&events).expect("spans must nest");
    // 3 jobs x (job + queue_wait + 3 stages + 3 factors) + 1 job-less span.
    assert_eq!(spans, 3 * 8 + 1);

    // Every job's group carries its id; job-less spans close the file.
    let begin_jobs: Vec<Option<i64>> = events
        .iter()
        .filter(|e| e.ph == 'B' && e.name == "job")
        .map(|e| e.args.iter().find(|(k, _)| k == "job").map(|&(_, v)| v))
        .collect();
    assert_eq!(begin_jobs, vec![Some(0), Some(1), Some(2)]);
    let last_begin = events
        .iter()
        .rev()
        .find(|e| e.ph == 'B')
        .expect("has begins");
    assert_eq!(last_begin.name, "scrape");

    // Stage spans nest inside their job span on the same tid and contain
    // their factor child.
    let rf_begin = events
        .iter()
        .position(|e| e.ph == 'B' && e.name == "rf")
        .expect("rf span present");
    assert_eq!(events[rf_begin + 1].name, "factor");
    assert_eq!(events[rf_begin + 1].ph, 'B');

    // After a full drain the buffers are empty.
    assert!(trace::take_events().is_empty());
}

#[test]
fn disabled_tracing_records_nothing() {
    let _serial = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::force_disable();
    {
        let _span = elf_obs::span!("invisible", weight = 1);
        trace::record_past("also_invisible", 10, Vec::new());
    }
    // Only inspect our own names: the enabled test above may be interleaved.
    let leaked = trace::take_events()
        .into_iter()
        .filter(|e| e.name.contains("invisible"))
        .count();
    assert_eq!(leaked, 0);
}
