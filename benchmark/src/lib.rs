//! The repo's one end-to-end + per-layer benchmark. See `README.md`.

pub mod compare;
pub mod gen;
pub mod json;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod trace;
pub mod workload;
