//! Benchmarks and the `reproduce` binary: regenerates every table and
//! figure of the paper's evaluation (§5).
//!
//! The [`experiments`] module has one function per table/figure; the
//! `reproduce` binary dispatches on a name (`table1`, `fig3`, …, or `all`)
//! and prints the rendered result. The bench targets under `benches/` run
//! on the in-tree [`timing`] harness (no external deps, fully offline) and
//! emit machine-readable `BENCH_*.json` files at the workspace root
//! (`--quick` smoke runs write under `target/bench-smoke/` instead):
//! detector throughput, clock micro-operations, end-to-end workload
//! overhead, and the version-fast-path ablation.
//!
//! Absolute numbers differ from the paper (the substrate is an interpreter,
//! not Jikes RVM on a 2009 Core 2 Quad); the *shapes* — who wins, linearity
//! in the sampling rate, where LITERACE fails — are the reproduction
//! targets. See EXPERIMENTS.md for paper-vs-measured notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod timing;

pub use experiments::{ExpConfig, Experiment};
pub use timing::{Bench, Measurement};
