//! Rubick's round state: the shared [`RoundContext`] ledger, the tentative
//! allocation [`Table`] and the undo log of one search. [`State`] is the only writer of the table, the log and the cached
//! victim floor and GPU reach, so the invariants between them live here.

use super::ctx::Ctx;
use super::grow::victim_loss;
use crate::common::JobIndex;
use crate::round::RoundContext;
use rubick_model::Resources;
use rubick_sim::cluster::{Allocation, Cluster};
use rubick_sim::job::JobId;
use rubick_sim::scheduler::JobSnapshot;
use std::cell::Cell;
use std::fmt::Debug;

/// The buffers of Rubick's round state, kept by the scheduler across
/// rounds so that a steady-state round refills them instead of
/// allocating its bookkeeping anew.
#[derive(Default)]
pub(crate) struct RoundBuffers {
    table: Table,
    undo: Undo,
    /// Each job's penalty gate, by slice position ([`Ctx::is_frozen`]).
    pub(super) frozen: Vec<bool>,
    /// Pass 2's `(priority, job)` order.
    pub(super) rest: Vec<(f64, JobId)>,
}

/// Rubick's tentative allocation table, indexed by position in the
/// round's jobs slice. Every walk over it goes in job-id order, which
/// victim ties (the first minimum wins), the quota sums and the order of
/// the emitted assignments all depend on; for the engine's id-sorted
/// slice that order is the slice's. Only the positions that held an
/// entry this round are listed, so resetting the table costs what the
/// last round entered, not the jobs slice. [`State`] keeps its
/// invariants.
#[cfg_attr(debug_assertions, derive(Clone))]
#[derive(Default)]
struct Table {
    /// `slots[pos]` is the grant of `jobs[pos]`, empty unless held.
    slots: Vec<Allocation>,
    /// Whether the table holds an entry for `jobs[pos]` this round: a
    /// running job from the start of the round or a kept search. Steals
    /// that empty a grant leave its entry, empty, in the table.
    held: Vec<bool>,
    /// Whether a kept search changed `jobs[pos]`'s entry this round.
    changed: Vec<bool>,
    /// How many `changed` flags are set.
    changed_count: usize,
    /// `(job, slice position)` of every held entry, sorted by job id.
    /// Every other slot is empty and unflagged.
    order: Vec<(JobId, u32)>,
}

/// Mutable round state: the shared [`RoundContext`] ledger plus Rubick's
/// tentative allocation [`Table`]. Unlike the baselines, Rubick does not
/// commit assignments incrementally — its passes move resources between
/// jobs until the round settles, so it keeps the table here and emits the
/// final list at the end. [`schedule_job`](super::grow::schedule_job)
/// brackets each search with [`begin`](State::begin) and then
/// [`keep`](State::keep) or [`rollback`](State::rollback), so a
/// rolled-back search costs only what it touched. Debug builds derive
/// `Clone` to check every rollback against a full copy.
#[cfg_attr(debug_assertions, derive(Clone))]
pub(super) struct State<'a> {
    pub(super) round: RoundContext<'a>,
    /// The round's id → position map, shared with [`Ctx`].
    index: &'a JobIndex,
    table: Table,
    undo: Undo,
    /// The table's victim floor once computed (see
    /// [`victim_floor`](State::victim_floor)). Only a kept search can move
    /// a GPU, since a rollback restores the table, so only a keep clears it.
    floor: Cell<Option<Option<f64>>>,
    /// The table's GPU reach once computed (see
    /// [`gpu_reach`](State::gpu_reach)), cleared like `floor`.
    reach: Cell<Option<u32>>,
}

/// The undo log of one search. Its buffers are reused across searches and
/// rounds, so logging allocates only to copy a victim's allocation.
#[cfg_attr(debug_assertions, derive(Clone))]
#[derive(Default)]
struct Undo {
    /// The free ledger at [`State::begin`].
    free: Vec<Resources>,
    /// Each victim's slice position and allocation before the search
    /// first mutated it. Victims are drawn from the table, so each had one.
    victims: Vec<(usize, Allocation)>,
    /// The slice positions this search newly marked changed.
    changed: Vec<usize>,
}

impl<'a> State<'a> {
    /// The state at the start of a round over `jobs`: the ledger charged
    /// with every running job's allocation and the table holding it, in
    /// `buffers`' table and undo log.
    pub(super) fn new(
        cluster: &Cluster,
        jobs: &'a [JobSnapshot],
        index: &'a JobIndex,
        buffers: &mut RoundBuffers,
    ) -> Self {
        let mut t = std::mem::take(&mut buffers.table);
        // Only the slots last round listed need clearing.
        for &(_, pos) in &t.order {
            let pos = pos as usize;
            t.slots[pos].per_node.clear();
            (t.held[pos], t.changed[pos]) = (false, false);
        }
        t.order.clear();
        t.changed_count = 0;
        t.slots.resize_with(jobs.len(), Allocation::empty);
        t.held.resize(jobs.len(), false);
        t.changed.resize(jobs.len(), false);
        let mut round = RoundContext::new(cluster, jobs);
        round.charge_running(|pos, alloc| {
            t.slots[pos].clone_from(alloc);
            t.held[pos] = true;
            t.order.push((jobs[pos].id(), pos as u32));
        });
        // The engine's id-sorted slice already gives id order.
        if !t.order.windows(2).all(|w| w[0].0 < w[1].0) {
            t.order.sort_unstable_by_key(|&(id, _)| id);
        }
        State {
            round,
            index,
            table: t,
            undo: std::mem::take(&mut buffers.undo),
            floor: Cell::new(None),
            reach: Cell::new(None),
        }
    }

    /// Hands the table and undo log back to `buffers` for the next round.
    pub(super) fn finish(self, buffers: &mut RoundBuffers) {
        buffers.table = self.table;
        buffers.undo = self.undo;
    }

    /// The table entry of the job at slice position `pos`, if it has one.
    #[inline]
    pub(super) fn at(&self, pos: usize) -> Option<&Allocation> {
        self.table.held[pos].then(|| &self.table.slots[pos])
    }

    /// Job `id`'s table entry, if it has one.
    #[inline]
    pub(super) fn get(&self, id: JobId) -> Option<&Allocation> {
        self.at(self.index.pos(id))
    }

    /// Every held entry as `(job, slice position, grant)`, in job-id order.
    pub(super) fn entries(&self) -> impl Iterator<Item = (JobId, usize, &Allocation)> {
        let t = &self.table;
        t.order
            .iter()
            .map(|&(id, pos)| (id, pos as usize, &t.slots[pos as usize]))
    }

    /// Sets job `id`'s table entry to `alloc`, listing the job in id order
    /// if it held no entry yet this round.
    pub(super) fn insert(&mut self, id: JobId, alloc: Allocation) {
        let (pos, t) = (self.index.pos(id), &mut self.table);
        t.slots[pos] = alloc;
        if !t.held[pos] {
            t.held[pos] = true;
            let at = t.order.partition_point(|&(other, _)| other < id);
            t.order.insert(at, (id, pos as u32));
        }
    }

    /// Whether a kept search changed the entry at slice position `pos`
    /// this round.
    pub(super) fn changed(&self, pos: usize) -> bool {
        self.table.changed[pos]
    }

    /// Whether any kept search changed an entry this round.
    pub(super) fn any_changed(&self) -> bool {
        self.table.changed_count > 0
    }

    /// Opens the undo log for one search.
    pub(super) fn begin(&mut self) {
        self.undo.free.clear();
        self.undo.free.extend_from_slice(self.round.free());
        self.undo.victims.clear();
        self.undo.changed.clear();
    }

    /// Whether this search has mutated no victim yet.
    pub(super) fn no_victim_touched(&self) -> bool {
        self.undo.victims.is_empty()
    }

    /// `victim`'s allocation, logged before the search first mutates it.
    pub(super) fn victim_mut(&mut self, victim: JobId) -> &mut Allocation {
        let pos = self.index.pos(victim);
        debug_assert!(self.table.held[pos], "victim allocated");
        let alloc = &mut self.table.slots[pos];
        if !self.undo.victims.iter().any(|(p, _)| *p == pos) {
            self.undo.victims.push((pos, alloc.clone()));
        }
        alloc
    }

    /// Marks `id` changed, logging the mark if it is new.
    pub(super) fn mark_changed(&mut self, id: JobId) {
        let pos = self.index.pos(id);
        if !self.table.changed[pos] {
            self.table.changed[pos] = true;
            self.table.changed_count += 1;
            self.undo.changed.push(pos);
        }
    }

    /// Closes a kept search: it may have moved GPUs, so the cached victim
    /// floor and GPU reach are recomputed on their next read.
    pub(super) fn keep(&mut self) {
        self.floor.set(None);
        self.reach.set(None);
    }

    /// Restores what [`begin`](State::begin) saw: the ledger, each logged
    /// victim's allocation and the changed flags. The searched job's own
    /// entry is written only when the search is kept, so it needs no log.
    pub(super) fn rollback(&mut self) {
        self.round.free_mut().copy_from_slice(&self.undo.free);
        for (pos, alloc) in self.undo.victims.drain(..) {
            self.table.slots[pos] = alloc;
        }
        for pos in self.undo.changed.drain(..) {
            self.table.changed[pos] = false;
            self.table.changed_count -= 1;
        }
    }

    /// The lowest loss slope of any table entry that the steal loop could
    /// pick as a victim on some node ([`victim_loss`]), or `None` when no
    /// entry qualifies. The searched job's own entry is included: it can
    /// only lower the floor, which keeps every test against it
    /// conservative. Debug builds rescan on every cached read.
    pub(super) fn victim_floor(&self, ctx: &Ctx<'_>) -> Option<f64> {
        let scan = || {
            self.entries()
                .filter_map(|(id, _, alloc)| victim_loss(ctx, id, alloc))
                .reduce(f64::min)
        };
        cached(&self.floor, scan, |f| f.map(f64::to_bits), "victim floor")
    }

    /// The most GPUs any walk could add to a job's table entry: every free
    /// GPU, plus each table entry's GPUs above its own minimum, which is
    /// all [`Ctx::can_shrink`] lets the steal loop take from it. Debug
    /// builds rescan on every cached read.
    pub(super) fn gpu_reach(&self, ctx: &Ctx<'_>) -> u32 {
        let scan = || {
            let free: u32 = self.round.free().iter().map(|r| r.gpus).sum();
            self.entries().fold(free, |reach, (id, _, alloc)| {
                reach + alloc.gpus().saturating_sub(ctx.minimum(id).gpus)
            })
        };
        cached(&self.reach, scan, |r| r, "GPU reach")
    }
}

/// `cell`'s value, or `scan`'s stored in it when a keep cleared it.
/// Debug builds rescan on every cached read and compare the two by `key`.
fn cached<T: Copy, K: PartialEq + Debug>(
    cell: &Cell<Option<T>>,
    scan: impl Fn() -> T,
    key: impl Fn(T) -> K,
    what: &str,
) -> T {
    if let Some(value) = cell.get() {
        debug_assert_eq!(key(value), key(scan()), "stale {what}");
        return value;
    }
    let value = scan();
    cell.set(Some(value));
    value
}

/// Whether `state` is bit-identical to `before` in the ledger and the
/// whole allocation table: every slot, held flag and changed flag (debug
/// cross-check of [`State::rollback`]).
#[cfg(debug_assertions)]
pub(super) fn same_state(before: &State<'_>, state: &State<'_>) -> bool {
    let bits = |r: &Resources| (r.gpus, r.cpus, r.mem_gb.to_bits());
    let key = |s: &State<'_>| {
        let t = &s.table;
        let free: Vec<_> = s.round.free().iter().map(bits).collect();
        let slots: Vec<Vec<_>> = t
            .slots
            .iter()
            .map(|a| a.per_node.iter().map(|(n, r)| (*n, bits(r))).collect())
            .collect();
        let flags = (t.held.clone(), t.changed.clone(), t.changed_count);
        (free, slots, flags, t.order.clone())
    };
    key(before) == key(state)
}
