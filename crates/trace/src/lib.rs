//! # rubick-trace
//!
//! Synthetic workload traces for the cluster experiments (§7.3–7.4).
//!
//! The paper down-samples the busiest 12 hours of the Microsoft Philly
//! trace to 406 jobs on a 64-GPU cluster. The raw trace carries only
//! submission time, GPU count and duration; models, plans and mini-batch
//! targets are synthesized exactly as the paper describes. Since the
//! Philly trace file itself is not redistributable here, [`philly`]
//! generates a seeded synthetic trace with Philly-like marginals (bursty
//! arrivals, power-of-two GPU mix, heavy-tailed durations) — see
//! `DESIGN.md` for the substitution rationale.
//!
//! [`variants`] derives the paper's three scenario traces — **Base**
//! (random feasible plans), **BP** (best plans for the initial resources),
//! **MT** (two tenants, guaranteed vs. best-effort) — plus the load sweep
//! of Fig. 10 and the large-model-fraction sweep of Fig. 11.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod philly;
pub mod variants;

pub use philly::{generate_base, TraceConfig};
pub use variants::{best_plan_trace, multi_tenant_trace, with_large_model_fraction};
