//! The names the benchmark reports.  `BENCHMARK.json` lists the same names
//! for the driver; `tests/smoke.rs` checks that the two agree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller readings are better.
    Lower,
    /// Larger readings are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`; per-layer names start with the crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
    /// Counts and ratios of counts: the same seed must give the same value.
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact,
    }
}

/// End-to-end metrics: every workload reports every one (`--trace 0`).
///
/// `main_ms` and `ref_ms` are the two times a user of that workload waits
/// for; what they are on each workload is in the README's glossary.  The
/// driver's contract allows one bound per metric, so the two times carry the
/// bound their noisiest workload needs (`serve_open`, four service threads
/// on two shared cores); [`own_bound`] is the tighter one `elf-perf compare`
/// holds the other workloads to.
pub const END_TO_END: [MetricDef; 4] = [
    gated("main_ms", "ms", 0.25),
    gated("ref_ms", "ms", 0.25),
    gated("setup_s", "s", 0.25),
    gated("peak_rss_mb", "MB", 0.15),
];

/// The bound `elf-perf compare` applies to `def` on `workload`: a tenth for
/// the times of the three single-threaded workloads, the driver's bound
/// otherwise.
pub fn own_bound(workload: &str, def: &MetricDef) -> Option<f64> {
    let single_threaded = workload != "serve_open";
    match def.name {
        "main_ms" | "ref_ms" if single_threaded => Some(0.10),
        _ => def.bound,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics: every workload reports every one (`--trace 1`), probed
/// on that workload's own input circuits.
pub const PER_LAYER: [MetricDef; 51] = [
    layer("aig.cut_us_per_node", "us", Lower, false),
    layer("aig.features_us_per_node", "us", Lower, false),
    layer("aig.mffc_us_per_node", "us", Lower, false),
    layer("aig.rebuild_ns_per_and", "ns", Lower, false),
    layer("sop.isop_us_per_cut", "us", Lower, false),
    layer("sop.factor_us_per_cut", "us", Lower, false),
    layer("opt.truth_us_per_cut", "us", Lower, false),
    layer("opt.canon_us_per_cut", "us", Lower, false),
    layer("opt.gain_eval_us_per_cut", "us", Lower, false),
    layer("opt.cache_lookup_ns", "ns", Lower, false),
    layer("opt.cache_hit_rate", "fraction", Higher, true),
    layer("opt.commit_rate", "fraction", Higher, true),
    layer("opt.rf_stage_s", "s", Lower, false),
    layer("opt.rw_stage_s", "s", Lower, false),
    layer("opt.rs_stage_s", "s", Lower, false),
    layer("nn.forward_ns_per_row", "ns", Lower, false),
    layer("nn.train_s", "s", Lower, false),
    layer("core.plain_s", "s", Lower, false),
    layer("core.pruned_s", "s", Lower, false),
    layer("core.features_s", "s", Lower, false),
    layer("core.classify_s", "s", Lower, false),
    layer("core.mutate_s", "s", Lower, false),
    layer("core.prune_rate", "fraction", Higher, true),
    layer("core.and_delta_pct", "%", Lower, true),
    layer("core.keepall_over_plain", "ratio", Lower, false),
    layer("core.prune_speedup", "ratio", Higher, false),
    layer("core.shipped_recall", "fraction", Higher, true),
    layer("core.shipped_prune_rate", "fraction", Higher, true),
    layer("core.shipped_and_delta_pct", "%", Lower, true),
    layer("core.dataset_s", "s", Lower, false),
    layer("par.collect_speedup_t2", "ratio", Higher, false),
    layer("serve.capacity_jps", "1/s", Higher, false),
    layer("serve.lat_p50_ms", "ms", Lower, false),
    layer("serve.lat_p99_ms", "ms", Lower, false),
    layer("serve.queue_wait_p50_us", "us", Lower, false),
    layer("serve.service_p50_us", "us", Lower, false),
    layer("serve.overhead_p50_us", "us", Lower, false),
    layer("serve.batch_rows_mean", "count", Higher, false),
    layer("serve.forward_passes_per_job", "count", Lower, false),
    layer("serve.shed_frac", "fraction", Lower, true),
    layer("cec.verify_s", "s", Lower, false),
    layer("cec.decided_frac", "fraction", Higher, true),
    layer("cec.conflicts", "count", Lower, true),
    layer("cec.sat_calls", "count", Lower, true),
    layer("cec.undecided_pairs", "count", Lower, true),
    layer("cec.miter_ands", "count", Lower, true),
    layer("cec.us_per_conflict", "us", Lower, false),
    layer("cec.verify_over_flow", "ratio", Lower, false),
    layer("circuits.gen_s", "s", Lower, false),
    layer("obs.trace_overhead_pct", "%", Lower, false),
    layer("obs.dropped_spans", "count", Lower, true),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
