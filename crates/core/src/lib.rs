//! # rubick-core
//!
//! The paper's primary contribution: the **Rubick scheduling policy**
//! (Algorithm 1) that co-optimizes execution plans and multi-resource
//! allocations, plus every baseline the evaluation compares against.
//!
//! * [`registry`] — [`ModelRegistry`]: fitted performance models per model
//!   type, shared across jobs ("model-type flag" reuse of §3), with cached
//!   sensitivity curves.
//! * [`common`] — policy building blocks: gang packing, plan-search modes
//!   (full reconfiguration vs. Sia-style DP rescaling vs. fixed plans) and
//!   job-level sensitivity curves.
//! * [`round`] — [`RoundContext`]: the shared per-round pipeline (keep
//!   sets, free-resource ledger, gang packing, commit/evict) that every
//!   policy builds its `schedule` on.
//! * [`rubick`] — the Rubick scheduler: SLA `minRes` search, privileged
//!   admission by quota, slope-sorted allocation with
//!   shrink-the-least-sensitive reallocation, best-plan selection, memory
//!   allocation and the reconfiguration-penalty gate.
//! * [`variants`] — the ablations Rubick-E (plans only), Rubick-R
//!   (resources only) and Rubick-N (neither), built from the same policy
//!   with features disabled (§7.3 "break-down study").
//! * [`baselines`] — Sia, Synergy, AntMan and the equal-share scheduler of
//!   the Fig. 8 micro-benchmark.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod baselines;
pub mod common;
pub mod registry;
pub mod round;
pub mod rubick;
pub mod variants;

pub use baselines::{AntManScheduler, EqualShareScheduler, SiaScheduler, SynergyScheduler};
pub use common::{pack_gang, PlanSearch};
pub use registry::ModelRegistry;
pub use round::RoundContext;
pub use rubick::{RubickConfig, RubickScheduler};
pub use variants::{rubick_e, rubick_n, rubick_r};
