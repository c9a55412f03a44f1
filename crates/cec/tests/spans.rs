//! A traced check attributes its time by phase: under the `cec` span, one
//! `cec.miter`, `cec.simulate`, `cec.sweep` and `cec.final` span per check,
//! never one per pair, in that order and inside it.  A refuted mutant ends
//! after the simulation.  The test is alone in its binary because tracing
//! is process-wide.

use elf_aig::{Aig, Lit};
use elf_cec::{check_equivalence_with, CecParams, Equivalence};
use elf_obs::trace;

/// A ripple-carry adder; `majority` takes the carry `ab | (a | b)c` in
/// place of `ab | (a ^ b)c`, the same function on other nodes.
fn adder(bits: usize, majority: bool) -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_inputs(bits);
    let b = aig.add_inputs(bits);
    let mut carry = Lit::FALSE;
    for i in 0..bits {
        let axb = aig.xor(a[i], b[i]);
        let sum = aig.xor(axb, carry);
        let gen = aig.and(a[i], b[i]);
        let either = if majority { aig.or(a[i], b[i]) } else { axb };
        let prop = aig.and(either, carry);
        carry = aig.or(gen, prop);
        aig.add_output(sum);
    }
    aig.add_output(carry);
    aig
}

/// The names of the spans one check records, in the order they began, after
/// asserting that every phase lies inside the one `cec` span.
fn traced_phases(a: &Aig, b: &Aig) -> (Equivalence, Vec<&'static str>) {
    trace::clear();
    let report = check_equivalence_with(a, b, &CecParams::default());
    let mut events = trace::take_events();
    events.sort_by_key(|event| event.start_seq);
    let outer = &events[0];
    assert_eq!(outer.name, "cec");
    for event in &events[1..] {
        assert!(outer.start_seq < event.start_seq && event.end_seq < outer.end_seq);
    }
    let names = events.iter().map(|event| event.name).collect();
    (report.result, names)
}

#[test]
fn a_check_records_one_span_per_phase() {
    trace::force_enable();
    let (a, b) = (adder(8, false), adder(8, true));
    let (result, names) = traced_phases(&a, &b);
    assert_eq!(result, Equivalence::Proved);
    assert_eq!(
        names,
        ["cec", "cec.miter", "cec.simulate", "cec.sweep", "cec.final"]
    );

    let mut mutant = b.clone();
    let out = mutant.outputs()[3];
    mutant.set_output(3, !out);
    let (result, names) = traced_phases(&a, &mutant);
    assert!(result.counterexample().is_some());
    assert_eq!(names, ["cec", "cec.miter", "cec.simulate"]);
    assert_eq!(trace::dropped_spans(), 0);
    trace::force_disable();
}
