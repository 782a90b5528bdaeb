//! Library half of the HAC end-to-end benchmark; `main.rs` is its command
//! line. See `bench/README.md` for what is measured and why.

pub mod catalogue;
pub mod counting_store;
pub mod fixture;
pub mod json;
pub mod lanes;
pub mod obs;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod workloads;
