//! Command line of the benchmark; see the crate documentation.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use elf_perf::bench::{default_out_dir, run_named, with_environment};
use elf_perf::compare::compare;
use elf_perf::inputs::Sizes;
use elf_perf::json::Json;
use elf_perf::workloads::{Ctx, NAMES};

const USAGE: &str = "usage:
  elf-perf --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--out <dir>]
  elf-perf run --seed <u64> [--seconds <n>] [--trace] [--smoke] [--out <dir>]
  elf-perf compare <a.json> <b.json>
workloads: arith_rf flow_cached serve_open cec_verify";

/// Flags of the two benchmark modes.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

/// Parses flags; `bare_trace` makes `--trace` a switch (`run`) instead of
/// taking `0|1` (the driver's form).
fn parse_flags(args: &[String], bare_trace: bool) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = Some(value()?.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" if bare_trace => flags.trace = true,
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => flags.smoke = true,
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

fn context(flags: &Flags) -> Result<Ctx, String> {
    let smoke = flags.smoke;
    Ok(Ctx {
        seed: flags.seed.ok_or("--seed is required")?,
        seconds: flags.seconds.unwrap_or(if smoke { 1.0 } else { 15.0 }),
        sizes: if smoke { Sizes::SMOKE } else { Sizes::FULL },
        min_trials: if smoke { 1 } else { 3 },
        setups: if smoke { 1 } else { 5 },
    })
}

/// One workload in this process: the driver's mode.
fn bench(flags: &Flags) -> Result<bool, String> {
    let ctx = context(flags)?;
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let out_dir = flags.out.clone().unwrap_or_else(default_out_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let outcome = run_named(name, &ctx, flags.trace, &out_dir)
        .ok_or(format!("unknown workload `{name}`; one of {NAMES:?}"))?;
    outcome.print_human();
    let detail = out_dir.join(format!("{name}-trace{}.json", u8::from(flags.trace)));
    let record = with_environment(outcome.detail_json(&ctx));
    std::fs::write(&detail, record.render()).map_err(|e| format!("{}: {e}", detail.display()))?;
    println!("{}", outcome.contract_json().render());
    Ok(true)
}

/// All four workloads, one process each, into one result file.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let ctx = context(flags)?;
    let out_dir = flags.out.clone().unwrap_or_else(default_out_dir);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut pass = true;
    for traced in [false, true] {
        if traced && !flags.trace {
            continue;
        }
        for name in NAMES {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", name, "--seed", &ctx.seed.to_string()])
                .args(["--seconds", &ctx.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out_dir);
            if flags.smoke {
                command.arg("--smoke");
            }
            // The child's report goes to this process's stderr; its one-line
            // result is repeated in the detail file read below.
            let status = command
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            let detail = out_dir.join(format!("{name}-trace{}.json", u8::from(traced)));
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{}: {e}", detail.display()))?;
            let run = Json::parse(&text)?;
            pass &= status.success() && run.get("ops_failed").and_then(Json::as_f64) == Some(0.0);
            runs.push(run);
        }
    }
    let result = with_environment(Json::obj([
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(ctx.seconds)),
        ("smoke", Json::Bool(flags.smoke)),
        ("runs", Json::Arr(runs)),
    ]));
    let path = out_dir.join("result.json");
    std::fs::write(&path, result.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("result: {}", path.display());
    Ok(pass)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text))
    };
    compare(&read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..], true).and_then(|flags| run_all(&flags)),
        Some("compare") => compare_files(&args[1..]),
        Some("--help" | "-h") | None => Err(String::new()),
        Some(_) => parse_flags(&args, false).and_then(|flags| bench(&flags)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("elf-perf: {message}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
