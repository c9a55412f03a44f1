//! One benchmark process: one workload, set up, measured or traced, checked
//! and reported.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::check::Ops;
use crate::json::Json;
use crate::layers;
use crate::metrics::{own_bound, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{peak_rss_mb, Reading, Summary};
use crate::workloads::arith_rf::ArithRf;
use crate::workloads::cec_verify::CecVerify;
use crate::workloads::flow_cached::FlowCached;
use crate::workloads::serve_open::ServeOpen;
use crate::workloads::{Ctx, Extra, Workload};

/// Everything one process found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// The contract's metrics for this mode.
    pub metrics: Vec<(&'static MetricDef, Reading)>,
    /// Workload-specific readings.
    pub extras: Vec<Extra>,
    /// How the arms were run.
    pub notes: Vec<String>,
    /// Trials of each timed arm (0 in a traced run).
    pub trials: usize,
}

fn run<W: Workload>(ctx: &Ctx, traced: bool, out_dir: &Path) -> Outcome {
    let mut ops = Ops::default();
    // Set-up runs several times and the last one is kept; a traced run
    // reports no `setup_s` and sets up once.
    let setups = if traced { 1 } else { ctx.setups };
    let mut setup_seconds = Vec::new();
    let mut state = None;
    for _ in 0..setups {
        // The previous state goes first: a service joins its threads on drop.
        drop(state.take());
        let start = Instant::now();
        state = Some(W::setup(ctx, &mut ops));
        setup_seconds.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set-up ran at least once");

    if traced {
        let prepared = W::into_prepared(ctx, state);
        let trace_path = out_dir.join(format!("{}-trace.json", W::NAME));
        let values = layers::probe(ctx, &prepared, &trace_path, &mut ops);
        return Outcome {
            workload: W::NAME,
            traced,
            ops,
            metrics: PER_LAYER
                .iter()
                .map(|def| (def, Reading::single(values[def.name])))
                .collect(),
            extras: Vec::new(),
            notes: Vec::new(),
            trials: 0,
        };
    }
    let measured = W::measure(ctx, &mut state, &mut ops);
    drop(state);
    let readings = [
        measured.main,
        measured.reference,
        Reading::fastest(Summary::of(&setup_seconds)),
        Reading::single(peak_rss_mb()),
    ];
    Outcome {
        workload: W::NAME,
        traced,
        ops,
        metrics: END_TO_END.iter().zip(readings).collect(),
        extras: measured.extras,
        notes: measured.notes,
        trials: measured.trials,
    }
}

/// Runs workload `name`; `None` when there is no such workload.
pub fn run_named(name: &str, ctx: &Ctx, traced: bool, out_dir: &Path) -> Option<Outcome> {
    Some(match name {
        ArithRf::NAME => run::<ArithRf>(ctx, traced, out_dir),
        FlowCached::NAME => run::<FlowCached>(ctx, traced, out_dir),
        ServeOpen::NAME => run::<ServeOpen>(ctx, traced, out_dir),
        CecVerify::NAME => run::<CecVerify>(ctx, traced, out_dir),
        _ => return None,
    })
}

impl Outcome {
    /// The one-line result the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(def, reading)| {
            let fields = [
                ("value", Json::Num(reading.value)),
                ("unit", Json::str(def.unit)),
            ];
            (def.name, Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.ops.failed == 0)),
            ("attempted", Json::Num(self.ops.attempted.max(1) as f64)),
            ("failed", Json::Num(self.ops.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full record of the run: the contract's fields plus bounds, in-run
    /// quartiles, extras, notes and failure reasons.
    pub fn detail_json(&self, ctx: &Ctx) -> Json {
        let metrics = self.metrics.iter().map(|(def, reading)| {
            let mut fields = vec![
                ("value", Json::Num(reading.value)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better.as_str())),
                ("exact", Json::Bool(def.exact)),
            ];
            if let Some(bound) = own_bound(self.workload, def) {
                fields.push(("bound", Json::Num(bound)));
            }
            if let Some(spread) = reading.spread {
                fields.push(("spread", Json::Num(spread)));
            }
            if let Some(samples) = reading.samples {
                fields.push(("samples", samples.to_json()));
            }
            (def.name, Json::obj(fields))
        });
        let extras = self.extras.iter().map(|extra| {
            let fields = [
                ("value", Json::Num(extra.value)),
                ("unit", Json::str(extra.unit)),
                ("exact", Json::Bool(extra.exact)),
            ];
            (extra.name, Json::obj(fields))
        });
        let strings = |items: &[String]| Json::Arr(items.iter().map(Json::str).collect());
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::Num(ctx.seed as f64)),
            ("seconds", Json::Num(ctx.seconds)),
            ("trials", Json::Num(self.trials as f64)),
            ("setups", Json::Num(ctx.setups as f64)),
            ("ops_attempted", Json::Num(self.ops.attempted as f64)),
            ("ops_failed", Json::Num(self.ops.failed as f64)),
            ("failures", strings(&self.ops.reasons)),
            ("metrics", Json::obj(metrics)),
            ("extras", Json::obj(extras)),
            ("notes", strings(&self.notes)),
        ])
    }

    /// Prints every metric by name with unit, bound and in-run spread.
    pub fn print_human(&self) {
        eprintln!(
            "== {} ({}) — {} trial(s), ops {} attempted / {} failed",
            self.workload,
            if self.traced {
                "traced: per-layer"
            } else {
                "end to end"
            },
            self.trials,
            self.ops.attempted,
            self.ops.failed
        );
        for note in &self.notes {
            eprintln!("   {note}");
        }
        for (def, reading) in &self.metrics {
            let value = reading.value;
            let bound = own_bound(self.workload, def)
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            let spread = reading.samples.map_or(String::new(), |s| {
                let doubt = reading.spread.unwrap_or(0.0) * 100.0;
                format!(
                    "  min {:.4} q1 {:.4} median {:.4} q3 {:.4} n {} spread {doubt:.1}%",
                    s.min, s.q1, s.median, s.q3, s.n
                )
            });
            let exact = if def.exact { "  exact" } else { "" };
            eprintln!(
                "   {:<30} {value:>14.4} {:<8} {} better{bound}{spread}{exact}",
                def.name,
                def.unit,
                def.better.as_str()
            );
        }
        for extra in &self.extras {
            let exact = if extra.exact { "  exact" } else { "" };
            eprintln!(
                "   {:<30} {:>14.4} {:<8}{exact}",
                extra.name, extra.value, extra.unit
            );
        }
        for reason in &self.ops.reasons {
            eprintln!("   FAILED: {reason}");
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

/// Adds where and with what a result was taken — commit, cores, compiler —
/// to the members of `record`.
pub fn with_environment(mut record: Json) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    if let Json::Obj(fields) = &mut record {
        let text = |key: &str, value: String| (key.to_string(), Json::Str(value));
        fields.extend([
            text("git", command_line("git", &["rev-parse", "HEAD"])),
            text("rustc", command_line("rustc", &["--version"])),
            ("available_parallelism".to_string(), Json::Num(cores as f64)),
        ]);
    }
    record
}

/// Default directory for traces and detail files: next to the executable,
/// which is inside the build directory wherever that is.
pub fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("elf-perf-out")
}
