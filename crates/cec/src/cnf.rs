//! Tseitin encoding of an AIG into the CNF solver, loaded one cone at a time.
//!
//! Each loaded node gets one propositional variable; an AND gate
//! `n = a & b` becomes the three clauses `(!n | a)`, `(!n | b)`,
//! `(n | !a | !b)`, with edge complements folded into the literals.  The
//! constant-false node gets a variable pinned to false by a unit clause so
//! that constant outputs need no special cases downstream.
//!
//! Nothing else is encoded up front.  Asking for a literal loads the fanin
//! cone of its node, so a query propagates over the clauses of the nodes it
//! can reach and no others (the FRAIG recipe: Mishchenko et al., 2005).
//! Fanins are encoded through the representative map: once the sweep has
//! merged a node into an earlier one, every fanout loaded afterwards reads
//! the representative's literal, and the merged node is never loaded again.

use elf_aig::{Aig, Lit, NodeId};

use crate::solver::{SatLit, Solver, Var};

/// The variable mapping of one circuit, grown on demand.
#[derive(Debug)]
pub(crate) struct Encoding {
    /// Per node slot: the solver variable, once the node is loaded.
    node_var: Vec<Option<Var>>,
    /// Per node slot: the literal the node is known to equal, itself until
    /// a merge.  A representative is never merged, so one lookup resolves.
    repr: Vec<Lit>,
    /// The loader's DFS stack, kept between loads.
    stack: Vec<NodeId>,
}

impl Encoding {
    /// An encoding of `aig` holding only the constant.
    pub(crate) fn new(aig: &Aig, solver: &mut Solver) -> Encoding {
        let mut node_var: Vec<Option<Var>> = vec![None; aig.num_slots()];
        solver.reserve(aig.num_slots());
        let const_var = solver.new_var();
        node_var[0] = Some(const_var);
        solver.add_clause(&[const_var.negative()]);
        Encoding {
            node_var,
            repr: (0..aig.num_slots() as u32)
                .map(|i| NodeId::new(i).lit())
                .collect(),
            stack: Vec::new(),
        }
    }

    /// The literal `lit` is known to equal: its node's representative, with
    /// the edge's complement applied.
    pub(crate) fn repr(&self, lit: Lit) -> Lit {
        self.repr[lit.node().as_usize()].complement_if(lit.is_complemented())
    }

    /// Records that `node` equals `lit`.  Fanouts loaded from now on read
    /// `lit`'s representative in place of `node`.
    pub(crate) fn merge(&mut self, node: NodeId, lit: Lit) {
        self.repr[node.as_usize()] = self.repr(lit);
    }

    /// The solver literal of the AIG literal `lit`, loading its cone first.
    pub(crate) fn lit(&mut self, aig: &Aig, solver: &mut Solver, lit: Lit) -> SatLit {
        let lit = self.repr(lit);
        self.load(aig, solver, lit.node())
            .lit(!lit.is_complemented())
    }

    /// The value of `node` in the solver's last model; a node that was never
    /// loaded reads `false` (no loaded cone depends on it, so any value is
    /// a valid witness).
    pub(crate) fn model_value(&self, solver: &Solver, node: NodeId) -> bool {
        self.node_var[node.as_usize()].is_some_and(|v| solver.model_value(v))
    }

    /// Loads `root`'s fanin cone, read through the representative map: one
    /// iterative DFS that encodes each node once, fanins before fanouts.
    fn load(&mut self, aig: &Aig, solver: &mut Solver, root: NodeId) -> Var {
        self.stack.push(root);
        while let Some(&id) = self.stack.last() {
            if self.node_var[id.as_usize()].is_some() {
                self.stack.pop();
                continue;
            }
            if !aig.is_and(id) {
                self.node_var[id.as_usize()] = Some(solver.new_var());
                self.stack.pop();
                continue;
            }
            let (f0, f1) = aig.fanins(id);
            let (f0, f1) = (self.repr(f0), self.repr(f1));
            let pending = self.stack.len();
            for fanin in [f0, f1] {
                if self.node_var[fanin.node().as_usize()].is_none() {
                    self.stack.push(fanin.node());
                }
            }
            if self.stack.len() > pending {
                continue;
            }
            self.stack.pop();
            let (a, b) = (self.loaded(f0), self.loaded(f1));
            self.node_var[id.as_usize()] = Some(solver.new_and(a, b));
        }
        match self.node_var[root.as_usize()] {
            Some(v) => v,
            None => unreachable!("the DFS loads its root"),
        }
    }

    /// The solver literal of a literal whose node is loaded.
    fn loaded(&self, lit: Lit) -> SatLit {
        match self.node_var[lit.node().as_usize()] {
            Some(v) => v.lit(!lit.is_complemented()),
            None => unreachable!("fanins are loaded before their fanouts"),
        }
    }

    /// Whether `node` has a variable.
    #[cfg(test)]
    pub(crate) fn is_loaded(&self, node: NodeId) -> bool {
        self.node_var[node.as_usize()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn encoded_and_gate_behaves_like_conjunction() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(2);
        let f = aig.and(ins[0], ins[1]);
        aig.add_output(f);

        let mut solver = Solver::new();
        let mut enc = Encoding::new(&aig, &mut solver);
        let out = enc.lit(&aig, &mut solver, f);
        let a = enc.lit(&aig, &mut solver, ins[0]);
        let b = enc.lit(&aig, &mut solver, ins[1]);

        // The output can be true, and then both inputs are true.
        assert_eq!(solver.solve(&[out], None), SolveResult::Sat);
        assert_eq!(solver.solve(&[out, !a], None), SolveResult::Unsat);
        assert_eq!(solver.solve(&[out, !b], None), SolveResult::Unsat);
        // And false whenever some input is false.
        assert_eq!(solver.solve(&[!a, out], None), SolveResult::Unsat);
    }

    #[test]
    fn constant_outputs_are_pinned() {
        let mut aig = Aig::new();
        aig.add_inputs(1);
        aig.add_output(Lit::TRUE);
        aig.add_output(Lit::FALSE);

        let mut solver = Solver::new();
        let mut enc = Encoding::new(&aig, &mut solver);
        let (f, t) = (
            enc.lit(&aig, &mut solver, Lit::FALSE),
            enc.lit(&aig, &mut solver, Lit::TRUE),
        );
        assert_eq!(solver.solve(&[f], None), SolveResult::Unsat);
        assert_eq!(solver.solve(&[t], None), SolveResult::Sat);
    }

    #[test]
    fn complemented_edges_fold_into_literals() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(2);
        // NOR: !a & !b
        let f = aig.and(!ins[0], !ins[1]);
        aig.add_output(f);

        let mut solver = Solver::new();
        let mut enc = Encoding::new(&aig, &mut solver);
        let (f, a, not_a, not_b) = (
            enc.lit(&aig, &mut solver, f),
            enc.lit(&aig, &mut solver, ins[0]),
            enc.lit(&aig, &mut solver, !ins[0]),
            enc.lit(&aig, &mut solver, !ins[1]),
        );
        assert_eq!(solver.solve(&[f, a], None), SolveResult::Unsat);
        assert_eq!(solver.solve(&[f, not_a, not_b], None), SolveResult::Sat);
    }

    #[test]
    fn loading_a_node_creates_exactly_its_cone_once() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(5);
        let ab = aig.and(ins[0], ins[1]);
        let abc = aig.and(ab, !ins[2]);
        // A second cone over two more inputs, sharing nothing with `abc`.
        let de = aig.and(ins[3], ins[4]);
        aig.add_output(abc);
        aig.add_output(de);

        let mut solver = Solver::new();
        let mut enc = Encoding::new(&aig, &mut solver);
        assert_eq!((solver.num_vars(), solver.num_clauses()), (1, 0));

        enc.lit(&aig, &mut solver, abc);
        // The constant, three inputs and two ANDs of three clauses each.
        assert_eq!((solver.num_vars(), solver.num_clauses()), (6, 6));
        for (i, &input) in ins.iter().enumerate() {
            assert_eq!(enc.is_loaded(input.node()), i < 3, "input {i}");
        }
        assert!(!enc.is_loaded(de.node()));

        // Asking again, or for a node inside the cone, adds nothing.
        enc.lit(&aig, &mut solver, !abc);
        enc.lit(&aig, &mut solver, ab);
        assert_eq!((solver.num_vars(), solver.num_clauses()), (6, 6));

        enc.lit(&aig, &mut solver, de);
        assert_eq!((solver.num_vars(), solver.num_clauses()), (9, 9));
    }

    #[test]
    fn a_merged_fanin_is_encoded_on_its_representatives_literal() {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let ab = aig.and(ins[0], ins[1]);
        // `twin` = (a & b) & a, the same function as `ab` on its own node.
        let twin = aig.and(ab, ins[0]);
        let root = aig.and(!twin, ins[2]);
        aig.add_output(root);
        assert_ne!(twin.node(), ab.node());

        let mut solver = Solver::new();
        let mut enc = Encoding::new(&aig, &mut solver);
        enc.merge(twin.node(), ab);
        assert_eq!(enc.repr(!twin), !ab);

        let root = enc.lit(&aig, &mut solver, root);
        assert!(!enc.is_loaded(twin.node()), "a merged node is never loaded");
        // The constant, three inputs, `ab` and `root`.
        assert_eq!(solver.num_vars(), 6);
        // `root` reads `!ab` directly: with `ab` true it cannot hold.
        let ab = enc.lit(&aig, &mut solver, ab);
        assert_eq!(solver.num_vars(), 6);
        assert_eq!(solver.solve(&[root, ab], None), SolveResult::Unsat);
        assert_eq!(solver.solve(&[root, !ab], None), SolveResult::Sat);
    }
}
