//! The online-refit hook on the engine's observation path.
//!
//! Every time the engine (re)configures a job, the ground-truth oracle
//! measures the configuration's real iteration time — noise, interference
//! and chaos stragglers included. That measurement is exactly what a
//! production scheduler sees from its telemetry, and exactly what an
//! online estimator needs to tighten the 7-parameter throughput model
//! fitted from the (much sparser) offline profile. This module defines
//! the boundary between the two: the engine pushes each measurement
//! through an optional [`RefitHook`], and a hook that materially changed
//! a model reports a [`RefitOutcome`], which the engine turns into a
//! [`rubick_obs::SimEvent::ModelRefit`] event plus a forced re-planning
//! round.
//!
//! The trait lives here (not in the policy layer) because `rubick-sim`
//! sits below `rubick-core` in the crate graph: the engine cannot see the
//! model registry, so the registry-backed implementation
//! (`rubick_refit::RegistryRefitter`) plugs in from above via
//! [`crate::Engine::set_refit_hook`].
//!
//! Determinism contract: hooks are invoked synchronously from
//! [`crate::Engine::step`]'s apply phase, in the engine's deterministic
//! job order, after the scheduler's round has fully completed — so a
//! deterministic hook yields byte-identical refits on every run, and an
//! engine without a hook is byte-identical to one that never existed.

use rubick_model::{ExecutionPlan, Placement};

/// One observed (configuration → iteration time) sample, handed to the
/// hook at the instant the engine applies the configuration.
#[derive(Debug, Clone)]
pub struct RefitObservation<'a> {
    /// Simulation time of the (re)configuration, seconds.
    pub at: f64,
    /// Model-type name (the registry key), e.g. `"gpt2-1.5b"`.
    pub model: &'a str,
    /// The execution plan the job was configured with.
    pub plan: &'a ExecutionPlan,
    /// Where the job's GPUs sit (bandwidth class per communication kind).
    pub placement: &'a Placement,
    /// The job's global batch size.
    pub global_batch: u32,
    /// Observed end-to-end seconds per iteration — the testbed truth
    /// including noise, and including any straggler slowdown.
    pub iter_time: f64,
    /// Multiplicative straggler cap applied by chaos (`1.0` = no
    /// straggler). Hooks should exclude or attenuate capped observations:
    /// the slowdown is a property of a sick node, not of the model.
    pub straggler_factor: f64,
}

/// What a hook did with an observation, when it materially changed the
/// model. Returning `Some` makes the engine emit a
/// [`rubick_obs::SimEvent::ModelRefit`] and force a re-planning round.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitOutcome {
    /// Model-type name that was refit.
    pub model: String,
    /// Maximum relative envelope shift between old and new predictions
    /// over the hook's observation window.
    pub shift: f64,
    /// The 7 fittable parameters before the refit
    /// (`PerfParams::to_vec` order).
    pub old_params: [f64; 7],
    /// The 7 fittable parameters after the refit.
    pub new_params: [f64; 7],
}

/// An online throughput-model estimator fed by the engine's live
/// measurement stream.
///
/// Implementations must be deterministic functions of the observation
/// sequence: the engine calls [`RefitHook::observe`] in a fixed order
/// regardless of scheduler thread count, and the repo's byte-identity
/// guarantees extend to refit-enabled runs only as long as the hook
/// holds up its end.
pub trait RefitHook {
    /// Feeds one observation; returns `Some` when the observation drove a
    /// material model change (registry already updated by the hook).
    fn observe(&mut self, obs: &RefitObservation<'_>) -> Option<RefitOutcome>;
}
