//! Shared helpers for the criterion benches and `all_experiments`, the
//! one binary that regenerates the paper's behavioural figures.

pub mod harness;

pub use harness::{ring_once, ExperimentRow};
