//! # elf-circuits
//!
//! Benchmark workload generators for the ELF reproduction.
//!
//! The paper evaluates on three circuit families, none of which can be
//! shipped with this repository (the EPFL suite is an external download and
//! the industrial designs are proprietary).  Each family is therefore
//! regenerated from scratch:
//!
//! * [`epfl`] — the six EPFL-style arithmetic benchmarks (divider,
//!   hypotenuse, log2, multiplier, square root, square) synthesized from
//!   word-level primitives;
//! * [`industrial`] — control-dominated random netlists matched to the
//!   published statistics of the ten industrial designs (Table II);
//! * [`synthetic`] — the large synthetic stress-test circuits of Table VI.
//!
//! The [`words`] module exposes the word-level construction primitives
//! (adders, multipliers, dividers, square roots, priority encoders) used by
//! the arithmetic generators; they are reusable for building further
//! workloads.
//!
//! # Examples
//!
//! ```
//! use elf_circuits::epfl::{arithmetic_circuit, Scale};
//!
//! let multiplier = arithmetic_circuit("multiplier", Scale::Tiny);
//! assert!(multiplier.num_ands() > 100);
//! ```

pub mod epfl;
pub mod industrial;
pub mod scripted;
pub mod synthetic;
pub mod words;

pub use epfl::{arithmetic_circuit, arithmetic_suite, Scale, ARITHMETIC_NAMES};
pub use industrial::{
    generate_industrial, generate_random_netlist, industrial_suite, IndustrialProfile,
    TABLE2_PROFILES,
};
pub use scripted::{script_strategy, scripted_circuit, GateChoice};
pub use synthetic::{
    generate_large_circuit, generate_synthetic, synthetic_suite, SyntheticSpec, TABLE6_SPECS,
};
