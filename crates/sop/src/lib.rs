//! # elf-sop
//!
//! Two-level and factored-form logic substrate for the ELF reproduction.
//!
//! Refactoring transforms a cut of an AIG in three steps, all provided here:
//!
//! 1. The cut's function is expressed as a [`TruthTable`] over its leaves.
//! 2. The truth table is converted to an irredundant sum-of-products cover
//!    ([`Sop::isop`], the Minato–Morreale algorithm).  The recursion pushes
//!    each cube complete, with the split literals of the levels above it,
//!    and reads every interval over the three lowest variables from one
//!    table filled once per process.
//! 3. The cover is algebraically [factored](factor) into a [`FactoredForm`],
//!    whose binary gate count is the size of the resynthesized cut, by
//!    dividing by its most frequent literal, the literal counts held
//!    bit-sliced and taken only where the descent goes.  The form
//!    is one flat arena of [`Gate`]s over [`Term`]s; the `_into` variants
//!    ([`Sop::isop_into`], [`factor_truth_table_into`]) work in a caller's
//!    buffers and allocate nothing once they are warm.
//!
//! # Examples
//!
//! ```
//! use elf_sop::{factor_truth_table, Sop, TruthTable};
//!
//! // f = a b + a c factors into a (b + c): two gates instead of three.
//! let a = TruthTable::var(0, 3);
//! let b = TruthTable::var(1, 3);
//! let c = TruthTable::var(2, 3);
//! let f = &(&a & &b) | &(&a & &c);
//! let expr = factor_truth_table(&f);
//! assert_eq!(expr.num_gates(), 2);
//! assert_eq!(Sop::isop(&f).num_cubes(), 2);
//! ```

mod cover;
mod factor;
mod truth;

pub use cover::{Cube, Sop};
pub use factor::{
    factor, factor_truth_table, factor_truth_table_into, FactorScratch, FactoredForm, Gate, Term,
};
pub use truth::{TruthTable, MAX_VARS};
