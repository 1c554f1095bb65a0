//! # rubick-testbed
//!
//! A synthetic **ground-truth testbed** standing in for the paper's 64-GPU
//! A800 cluster (repro substitution documented in `DESIGN.md`).
//!
//! The paper measures real DeepSpeed/Megatron training runs; this crate
//! provides the same black-box interface — "run this (model, plan,
//! placement) and tell me the iteration time" — backed by a *richer*
//! analytic simulator than the fitted performance model:
//!
//! * [`oracle`] — [`TestbedOracle`]: hidden per-model ground-truth
//!   parameters plus effects the fitted model does **not** know about
//!   (kernel-launch overhead, communication latency, diminishing CPU
//!   returns, memory-pressure slowdown, seeded measurement noise). Fitting
//!   the 7-parameter model against this oracle is therefore a real
//!   approximation problem, and the prediction errors of Table 2 are
//!   meaningful.
//! * [`profiler`] — collects the paper's "7 sampled test runs, 3 of them
//!   ZeRO-Offload" and fits a [`rubick_model::ThroughputModel`].
//! * [`loss`] — a seeded stochastic training-loss process for the accuracy
//!   experiments (Fig. 9 / Table 3): reconfiguration keeps the global batch
//!   size, so its loss perturbation is smaller than changing random seeds.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod loss;
pub mod oracle;
pub mod profiler;

pub use loss::{LossSimulator, LossTrace};
pub use oracle::{Measurement, TestbedOracle};
pub use profiler::{profile_and_fit, ProfileReport, Profiler};
