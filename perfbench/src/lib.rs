//! # perfbench — the repository benchmark
//!
//! Three seeded workloads, each stressing different layers of the stack:
//!
//! | workload | layers doing the work |
//! |---|---|
//! | `portfolio-live` | sca-uarch, sca-power, sca-campaign, sca-target, sca-core |
//! | `corpus-lint` | sca-store read path, sca-analysis accumulators; sca-isa, sca-sched, sca-lint |
//! | `tenant-mix` | sca-server scheduling and dedup, sca-store writes, the simulator |
//!
//! An untraced run prints the end-to-end metrics; a traced run prints
//! the per-layer metrics. Both check every output the program produced.
//! See `perfbench/README.md` for the metric definitions and the map from
//! each layer metric to the end-to-end metric it should move.

#![forbid(unsafe_code)]

pub mod gen;
pub mod golden;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
