//! `elf-perf compare a.json b.json`: two result files of `elf-perf run`,
//! row by row.

use crate::json::Json;

/// How one (workload, metric) row came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Same,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The samples of either side leave its value in doubt by more than the
    /// bound (its recorded `spread`).
    Unresolved,
    /// An exact value differs between the files.
    Differs,
}

/// Judges one bounded metric: `a` is the reference, `b` the candidate.
pub fn judge(a: &Json, b: &Json) -> Option<(f64, f64, f64, Verdict)> {
    let (va, vb) = (a.get("value")?.as_f64()?, b.get("value")?.as_f64()?);
    let bound = a.get("bound")?.as_f64()?;
    let spread = [a, b]
        .iter()
        .filter_map(|m| m.get("spread")?.as_f64())
        .fold(0.0, f64::max);
    let worse_by = match a.get("better")?.as_str()? {
        "higher" => (va - vb) / va.abs(),
        _ => (vb - va) / va.abs(),
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    Some((va, vb, bound, verdict))
}

/// Prints every row of both files and returns whether `b` passes: no
/// `worse` row, no exact value that differs, no higher failure rate.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let runs = |file: &Json| {
        file.get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or("not a result file of `elf-perf run`: no `runs`")
    };
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let mut pass = true;
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "a", "b", "bound"
    );
    for run_a in &runs_a {
        let key = |run: &Json| (run.get("workload").cloned(), run.get("traced").cloned());
        let Some(run_b) = runs_b.iter().find(|run| key(run) == key(run_a)) else {
            return Err(format!("b has no run for {:?}", key(run_a)));
        };
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let rate = |run: &Json| {
            let get = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            get("ops_failed") / get("ops_attempted").max(1.0)
        };
        if rate(run_b) > rate(run_a) {
            println!(
                "{workload:<12} ops_failed/ops_attempted rose: {} -> {}",
                rate(run_a),
                rate(run_b)
            );
            pass = false;
        }
        for section in ["metrics", "extras"] {
            let empty = Default::default();
            let rows_a = run_a.get(section).and_then(Json::as_obj).unwrap_or(&empty);
            for (name, metric_a) in rows_a {
                let Some(metric_b) = run_b.get(section).and_then(|s| s.get(name)) else {
                    return Err(format!("b lacks {workload}/{name}"));
                };
                let (va, vb) = (metric_a.get("value"), metric_b.get("value"));
                let exact = metric_a.get("exact") == Some(&Json::Bool(true));
                let (bound, verdict) =
                    if let Some((_, _, bound, verdict)) = judge(metric_a, metric_b) {
                        (format!("{:.0}%", bound * 100.0), verdict)
                    } else if exact && va != vb {
                        ("exact".to_string(), Verdict::Differs)
                    } else if exact {
                        ("exact".to_string(), Verdict::Same)
                    } else {
                        continue;
                    };
                pass &= !matches!(verdict, Verdict::Worse | Verdict::Differs);
                println!(
                    "{workload:<12} {name:<28} {:>14.4} {:>14.4} {bound:>7}  {}",
                    va.and_then(Json::as_f64).unwrap_or(f64::NAN),
                    vb.and_then(Json::as_f64).unwrap_or(f64::NAN),
                    format!("{verdict:?}").to_lowercase()
                );
            }
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, q1: f64, q3: f64) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("bound", Json::Num(0.10)),
            ("better", Json::str("lower")),
            ("spread", Json::Num((q3 - q1) / value)),
        ])
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = metric(100.0, 99.0, 101.0);
        assert_eq!(
            judge(&a, &metric(105.0, 104.0, 106.0)).unwrap().3,
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &metric(80.0, 79.0, 81.0)).unwrap().3,
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &metric(115.0, 114.0, 116.0)).unwrap().3,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &metric(115.0, 100.0, 130.0)).unwrap().3,
            Verdict::Unresolved
        );
    }

    #[test]
    fn an_exact_difference_fails_the_comparison() {
        let file = |conflicts: f64| {
            Json::obj([(
                "runs",
                Json::Arr(vec![Json::obj([
                    ("workload", Json::str("cec_verify")),
                    ("traced", Json::Bool(false)),
                    ("ops_attempted", Json::Num(10.0)),
                    ("ops_failed", Json::Num(0.0)),
                    (
                        "metrics",
                        Json::obj([("main_ms", metric(100.0, 99.0, 101.0))]),
                    ),
                    (
                        "extras",
                        Json::obj([(
                            "conflicts",
                            Json::obj([
                                ("value", Json::Num(conflicts)),
                                ("exact", Json::Bool(true)),
                            ]),
                        )]),
                    ),
                ])]),
            )])
        };
        assert_eq!(compare(&file(7.0), &file(7.0)), Ok(true));
        assert_eq!(compare(&file(7.0), &file(8.0)), Ok(false));
    }
}
