//! # elf-aig
//!
//! And-Inverter Graph (AIG) substrate for the ELF logic-synthesis
//! reproduction.  An AIG represents a multi-output Boolean function as a DAG
//! of two-input AND gates with optionally complemented edges; it is the
//! working representation of ABC-style logic optimization.
//!
//! The crate provides:
//!
//! * [`Aig`] — the graph itself, with structural hashing, incremental
//!   reference counts and levels, fanout tracking, MFFC computation and the
//!   in-place [`Aig::replace`] primitive used to commit resynthesis results;
//! * bit-parallel [simulation](Aig::simulate_word) and
//!   [equivalence checking](check_equivalence), plus cone-bounded
//!   [signatures](cone_signature) for commit-site soundness checks;
//! * [`miter`] construction (shared-input XOR/OR reduction of two circuits)
//!   — the entry point of SAT-based equivalence checking in `elf-cec`;
//! * [reconvergence-driven cuts](Aig::reconvergence_cut) and the six
//!   structural [`CutFeatures`] used by the ELF classifier;
//! * [AIGER](aiger) input/output, ASCII and binary.
//!
//! # Examples
//!
//! ```
//! use elf_aig::{Aig, CutParams};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! let t = aig.and(a, b);
//! let f = aig.or(t, c);
//! aig.add_output(f);
//!
//! // Form a reconvergence-driven cut for the output node and inspect its
//! // structural features.
//! let root = f.node();
//! let cut = aig.reconvergence_cut(root, &CutParams::default());
//! let features = aig.cut_features(&cut);
//! assert_eq!(features.leaves as usize, cut.num_leaves());
//! ```

mod aig;
pub mod aiger;
mod cut;
mod lit;
mod miter;
mod node;
mod sim;

pub use aig::{Aig, Fanout, NodeToken};
pub use cut::{Cut, CutFeatures, CutParams, CutScratch, FEATURE_NAMES, NUM_FEATURES};
pub use lit::{Lit, NodeId};
pub use miter::{miter, MiterError};
pub use node::{Node, NodeKind};
pub use sim::{
    check_equivalence, cone_signature, elementary_word, simulation_signature, EquivalenceResult,
    MAX_EXHAUSTIVE_INPUTS,
};
