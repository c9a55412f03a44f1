//! # elf-opt
//!
//! Logic-optimization operators over And-Inverter Graphs.
//!
//! The crate reimplements, from scratch, the operators the ELF paper builds
//! on:
//!
//! * [`Refactor`] — the reconvergence-driven refactor operator (the paper's
//!   baseline and the operator ELF prunes);
//! * [`Rewrite`] — DAG-aware cut rewriting (background operator, and the
//!   first extension target mentioned in the paper's conclusion);
//! * [`Resubstitution`] — window-based resubstitution.
//!
//! Rewrite and resubstitution run at ABC's defaults; refactor keeps the
//! three parameters its callers set ([`RefactorParams`]).  All three
//! implement [`PrunableOperator`]: each supplies its per-node resynthesis
//! step and its feature window, and one shared pass loop turns that into the
//! plain run, the labelled-sample recording run and the batched run that
//! sweeps every node's features, lets a classifier decide them all at once
//! and hands each kept node the window the sweep formed — all returning
//! [`OpStats`] — so higher layers (the generic ELF flow `elf_core::Elf<O>`,
//! script-style pipelines) prune any of them through the code the baseline
//! runs.
//!
//! # Examples
//!
//! ```
//! use elf_aig::Aig;
//! use elf_opt::{Refactor, RefactorParams};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! let t0 = aig.and(a, b);
//! let t1 = aig.and(a, c);
//! let f = aig.or(t0, t1);
//! aig.add_output(f);
//!
//! let stats = Refactor::new(RefactorParams::default()).run(&mut aig);
//! assert_eq!(stats.nodes_visited, 3);
//! ```

mod build;
mod cache;
mod operator;
mod refactor;
mod resub;
mod rewrite;

pub use build::{build_expr, count_new_nodes, cut_truth_table, ImplementationCost};
pub use cache::{semi_canonicalize, CutCache, CutCacheConfig, CutCacheStats, NpnTransform};
pub use operator::{LabeledCut, OpStats, PrunableOperator};
pub use refactor::{Refactor, RefactorParams};
pub use resub::Resubstitution;
pub use rewrite::Rewrite;
