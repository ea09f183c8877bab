//! End-to-end and per-layer benchmark of the TANGO middleware.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!   --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! layer → metric → workload table.

pub mod check;
pub mod fixture;
pub mod run;
pub mod stats;
pub mod stream;
