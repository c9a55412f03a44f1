//! `serve_open`: small jobs through a two-shard `ElfService`, open loop at
//! two fixed rates and then closed loop at capacity.  Jobs are a few
//! milliseconds of flow, so admission, queue, batcher and reply plumbing do
//! most of the work and the operators little.

use super::{Ctx, Extra, Measured, Workload};
use crate::check::{inputs_print, Ops};
use crate::inputs::{job_pool, poisson_schedule, prepare, Prepared, Protocol};
use crate::serving::{Phase, ServeRig};
use crate::stats::{quantile, Reading, Summary};

/// Arrival rates of the two open-loop phases, in jobs per second: about 30 %
/// and 60 % of what two shards complete on the reference box.
pub const RATES: [f64; 2] = [200.0, 400.0];

/// Seed of the job pool.  The pool is a fixed catalogue and `--seed` draws
/// the traffic over it (arrival times and which circuit each job is):
/// served latency follows the pool's weight, which moves by a third from one
/// seeded pool to the next.
pub const POOL_SEED: u64 = 1;

/// Jobs in flight in the closed-loop phase.
pub const OUTSTANDING: usize = 8;

/// Shares of the measured time: each open-loop phase, then the closed loop.
const SHARES: [f64; 3] = [0.5, 0.2, 0.3];

/// The workload type.
#[derive(Debug)]
pub struct ServeOpen;

/// Windows a phase is cut into.  A metric is the median over windows of the
/// window's own reading, which a burst of interference on the box (a second
/// or so, on two shared cores) moves far less than it moves a reading over
/// the whole phase.
const WINDOWS: usize = 10;

/// Per-job values of `phase`, grouped by the window the job completed in.
fn by_window(phase: &Phase, values: &[f64]) -> Vec<Vec<f64>> {
    let width = phase.elapsed_s / WINDOWS as f64;
    let mut windows = vec![Vec::new(); WINDOWS];
    for (done_at, &value) in phase.done_at_s.iter().zip(values) {
        windows[((done_at / width) as usize).min(WINDOWS - 1)].push(value);
    }
    windows
}

/// Median latency of each window, summarised.
fn window_p50_ms(phase: &Phase) -> Summary {
    let medians: Vec<f64> = by_window(phase, &phase.latency_ms)
        .iter()
        .filter(|window| !window.is_empty())
        .map(|window| Phase::p50(window))
        .collect();
    Summary::of(&medians)
}

/// Milliseconds per completed job in each window, summarised.
fn window_ms_per_job(phase: &Phase) -> Summary {
    let width_ms = phase.elapsed_s * 1e3 / WINDOWS as f64;
    let samples: Vec<f64> = by_window(phase, &phase.latency_ms)
        .iter()
        .map(|window| width_ms / window.len().max(1) as f64)
        .collect();
    Summary::of(&samples)
}

impl Workload for ServeOpen {
    const NAME: &'static str = "serve_open";
    type State = (Prepared, ServeRig);

    fn setup(ctx: &Ctx, ops: &mut Ops) -> Self::State {
        let pool = ctx.sizes.pool;
        let prepared = prepare(|| job_pool(pool, POOL_SEED), Protocol::PooledOneThreshold);
        let rig = ServeRig::start(&prepared, ops);
        (prepared, rig)
    }

    fn measure(ctx: &Ctx, (prepared, rig): &mut Self::State, ops: &mut Ops) -> Measured {
        let pool = prepared.circuits.len();
        let schedules = [0, 1].map(|phase| {
            let seconds = ctx.seconds * SHARES[phase];
            poisson_schedule(RATES[phase], seconds, pool, ctx.seed ^ phase as u64)
        });
        let open = schedules
            .each_ref()
            .map(|schedule| rig.open_loop(prepared, schedule, ops));
        let traffic = schedules
            .iter()
            .flatten()
            .flat_map(|&(due, index)| [due.to_bits(), index as u64]);
        let budget = ctx.seconds * SHARES[2];
        let closed = rig.closed_loop(
            prepared,
            OUTSTANDING,
            ctx.seed,
            |completed, elapsed| elapsed >= budget && completed >= pool,
            ops,
        );

        let main = Reading::median(window_p50_ms(&open[0]));
        let reference = Reading::median(window_ms_per_job(&closed));
        let jobs: usize = open.iter().map(|p| p.completed).sum::<usize>() + closed.completed;
        let shed: usize = open.iter().map(|p| p.shed).sum::<usize>() + closed.shed;
        let late = open.iter().map(|p| p.late_max_ms).fold(0.0, f64::max);
        Measured {
            main,
            reference,
            trials: 1,
            extras: vec![
                Extra::measured("p50_ms_r200", Phase::p50(&open[0].latency_ms), "ms"),
                Extra::measured("p50_ms_r400", Phase::p50(&open[1].latency_ms), "ms"),
                Extra::measured("capacity_jps", closed.jobs_per_second(), "1/s"),
                Extra::measured("lat_p99_ms_r200", quantile(&open[0].latency_ms, 0.99), "ms"),
                Extra::measured("lat_p99_ms_r400", quantile(&open[1].latency_ms, 0.99), "ms"),
                Extra::measured(
                    "queue_wait_p50_us_r200",
                    Phase::p50(&open[0].queue_wait_us),
                    "us",
                ),
                Extra::measured(
                    "queue_wait_p50_us_r400",
                    Phase::p50(&open[1].queue_wait_us),
                    "us",
                ),
                Extra::measured("service_p50_us", Phase::p50(&open[1].service_us), "us"),
                Extra::measured("overhead_p50_us", Phase::p50(&open[1].overhead_us), "us"),
                Extra::measured("gen_late_max_ms", late, "ms"),
                Extra::exact(
                    "shed_frac",
                    shed as f64 / (jobs + shed).max(1) as f64,
                    "fraction",
                ),
                Extra::exact("jobs_r200", open[0].completed as f64, "count"),
                Extra::exact("jobs_r400", open[1].completed as f64, "count"),
                Extra::measured("jobs_closed", closed.completed as f64, "count"),
                Extra::exact("inputs_print", inputs_print(traffic), "hash"),
            ],
            notes: vec![format!(
                "service: 2 shards, default batch knobs, AdmissionPolicy::Block; open loop, one \
                 generator thread, seeded Poisson arrivals at {} and {} jobs/s, latency from each \
                 job's due time; then closed loop with {OUTSTANDING} outstanding",
                RATES[0], RATES[1]
            )],
        }
    }

    fn into_prepared(_ctx: &Ctx, (prepared, rig): Self::State) -> Prepared {
        // Dropping the service drains it and joins its threads.
        drop(rig);
        prepared
    }
}
