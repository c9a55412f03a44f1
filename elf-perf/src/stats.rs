//! Medians, quartiles and the process's peak memory.

use crate::json::Json;

/// Minimum, median, quartiles and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (at least one).  Quartiles follow Python's
    /// `statistics.quantiles(samples, n=4)`, the rule the acceptance check
    /// applies to whole runs, so in-run and across-run spreads compare.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs a sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quartile = |i: usize| {
            if n == 1 {
                return sorted[0];
            }
            let rank = i * (n + 1);
            let j = (rank / 4).clamp(1, n - 1);
            let delta = rank as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            min: sorted[0],
            median: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Adds another summary member-wise: the sum over circuits of a
    /// per-circuit statistic, for each statistic.
    pub fn plus(self, other: Summary) -> Summary {
        Summary {
            min: self.min + other.min,
            median: self.median + other.median,
            q1: self.q1 + other.q1,
            q3: self.q3 + other.q3,
            n: self.n.min(other.n),
        }
    }

    /// Multiplies every statistic by `factor`.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            min: self.min * factor,
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            n: self.n,
        }
    }

    /// `{"min":…, "median":…, "q1":…, "q3":…, "n":…}`
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("min", Json::Num(self.min)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

/// One reported number with the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The number reported.
    pub value: f64,
    /// How far the samples leave the value in doubt, as a share of it.
    pub spread: Option<f64>,
    /// The samples, summarised.
    pub samples: Option<Summary>,
}

impl Reading {
    /// The fastest trial: for single-threaded work on a shared box, where
    /// interference only ever adds time.  On the reference box a window of
    /// four trials moves 12–18 % by its median and 2–12 % by its minimum.
    /// The doubt is how far the first quartile lies above it: small when
    /// several trials reached the floor.
    pub fn fastest(samples: Summary) -> Reading {
        Reading {
            value: samples.min,
            spread: Some((samples.q1 - samples.min) / samples.min),
            samples: Some(samples),
        }
    }

    /// The median sample, in doubt by the interquartile range.
    pub fn median(samples: Summary) -> Reading {
        Reading {
            value: samples.median,
            spread: Some(samples.spread()),
            samples: Some(samples),
        }
    }

    /// A single reading.
    pub fn single(value: f64) -> Reading {
        Reading {
            value,
            spread: None,
            samples: None,
        }
    }
}

/// Sums per-circuit summaries of per-trial samples (`samples[circuit][trial]`).
pub fn sum_over_circuits(samples: &[Vec<f64>]) -> Summary {
    samples
        .iter()
        .map(|trials| Summary::of(trials))
        .reduce(Summary::plus)
        .expect("at least one circuit")
}

/// Value at quantile `q` (nearest rank) of unsorted `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Geometric mean of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        let s = Summary::of(&[11.0, 1.0, 4.0, 2.0, 7.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.n), (1.0, 1.5, 4.0, 9.0, 5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = Summary::of(&[3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
        assert_eq!(Summary::of(&[2.0]).spread(), 0.0);
    }

    #[test]
    fn sums_and_quantiles() {
        let s = sum_over_circuits(&[vec![1.0, 2.0, 3.0], vec![10.0, 30.0, 20.0]]);
        assert_eq!((s.min, s.median), (11.0, 22.0));
        assert_eq!(Reading::fastest(s).value, 11.0);
        assert_eq!(Reading::median(s).value, 22.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.99), 5.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
