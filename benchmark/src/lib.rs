//! Build-once / simulate-many benchmark of the vamor MOR pipeline: three
//! paper workloads, an end-to-end pass and a traced per-layer pass. See
//! `README.md` for the workloads, the metrics and how they relate.

pub mod calib;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
