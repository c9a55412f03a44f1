//! The correctness gate: SAT-backed equivalence checking of flow results.
//!
//! Logic optimization must preserve function; [`VerifyMode`] decides how
//! much proof the flow buys.  [`Flow::with_verify`](crate::Flow::with_verify)
//! is the one switch, and the flow's checks are the only ones: each records
//! the `elf_verify_*` and `elf_sat_*` counters into the flow's registry.
//! [`VerifyMode::Final`] proves the whole pipeline in one check (cheapest),
//! [`VerifyMode::PerStage`] proves every stage separately — slower, but a
//! refutation then names the exact stage that broke the circuit.  Checks
//! never panic on a refutation: the
//! verdict travels in [`VerifyOutcome`] for the caller (or the serving
//! layer) to act on.

use std::time::Duration;

use elf_cec::Equivalence;

/// How much equivalence checking a flow run performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// No checking (the default): trust the operators.
    #[default]
    Off,
    /// One SAT check of the final result against the input circuit.
    Final,
    /// One SAT check after every stage, against that stage's input.  A
    /// refutation pinpoints the offending stage.
    PerStage,
}

impl VerifyMode {
    /// `true` unless the mode is [`VerifyMode::Off`].
    pub fn is_enabled(self) -> bool {
        self != VerifyMode::Off
    }
}

/// One executed equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyCheck {
    /// The stage the check follows, or `None` for the whole-flow check of
    /// [`VerifyMode::Final`].
    pub stage: Option<&'static str>,
    /// What the SAT checker concluded.
    pub result: Equivalence,
    /// Wall-clock time of the check.
    pub runtime: Duration,
    /// SAT conflicts the check spent (deterministic for a fixed workload;
    /// also accumulated into the flow's metrics registry as
    /// `elf_sat_conflicts_total`).
    pub conflicts: u64,
}

/// All equivalence checks of one flow run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// The mode the run was configured with.
    pub mode: VerifyMode,
    /// The executed checks, in execution order.
    pub checks: Vec<VerifyCheck>,
}

impl VerifyOutcome {
    /// `true` when every check proved equivalence.
    pub fn proved(&self) -> bool {
        self.checks.iter().all(|c| c.result.is_proved())
    }

    /// The first distinguishing input vector found, with the name of the
    /// stage whose check found it.
    pub fn counterexample(&self) -> Option<(Option<&'static str>, &[bool])> {
        self.checks
            .iter()
            .find_map(|c| c.result.counterexample().map(|cex| (c.stage, cex)))
    }

    /// Total wall-clock time spent checking.
    pub fn runtime(&self) -> Duration {
        self.checks.iter().map(|c| c.runtime).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(stage: Option<&'static str>, result: Equivalence) -> VerifyCheck {
        VerifyCheck {
            stage,
            result,
            runtime: Duration::from_millis(1),
            conflicts: 0,
        }
    }

    #[test]
    fn verdict_collapses_in_severity_order() {
        let outcome = VerifyOutcome {
            mode: VerifyMode::PerStage,
            checks: vec![
                check(Some("rf"), Equivalence::Proved),
                check(Some("rw"), Equivalence::Undecided(10)),
                check(Some("rs"), Equivalence::CounterExample(vec![true])),
            ],
        };
        assert!(!outcome.proved());
        let (stage, cex) = outcome.counterexample().unwrap();
        assert_eq!(stage, Some("rs"));
        assert_eq!(cex, &[true]);

        let outcome = VerifyOutcome {
            mode: VerifyMode::PerStage,
            checks: vec![
                check(Some("rf"), Equivalence::Proved),
                check(Some("rw"), Equivalence::Undecided(10)),
            ],
        };
        assert!(!outcome.proved());
        assert!(outcome.counterexample().is_none());
    }

    #[test]
    fn an_all_proved_outcome_is_proved() {
        let outcome = VerifyOutcome {
            mode: VerifyMode::Final,
            checks: vec![check(None, Equivalence::Proved)],
        };
        assert!(outcome.proved());
        assert!(outcome.runtime() >= Duration::from_millis(1));
    }

    #[test]
    fn modes_report_enablement() {
        assert!(!VerifyMode::Off.is_enabled());
        assert!(VerifyMode::Final.is_enabled());
        assert!(VerifyMode::PerStage.is_enabled());
        assert_eq!(VerifyMode::default(), VerifyMode::Off);
    }
}
