//! The repository benchmark: three workloads over the IPS library, each
//! reporting end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. See `README.md` next to `Cargo.toml`.

pub mod profile;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
