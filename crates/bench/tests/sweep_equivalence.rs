//! Property suite for the sweep executor: worker-thread count and cell
//! execution order are pure performance knobs. For any worker count and
//! any permutation of the cell list — chaos-enabled cells included —
//! every cell's rendered row must be byte-identical to the sequential
//! reference, and outcomes must come back in submission order.

mod sweep_support;

use proptest::prelude::*;
use rubick_bench::ZooBackend;
use rubick_sim::harness::sweep::{csv_row, run_cells};
use rubick_sim::{ScenarioOutcome, ScenarioSpec};
use std::sync::OnceLock;
use sweep_support::{backend_for, smoke_spec};

/// The smoke grid's cells, the shared backend, and the sequential
/// reference outcomes — computed once; every property case compares
/// against this.
fn reference() -> &'static (Vec<ScenarioSpec>, ZooBackend, Vec<ScenarioOutcome>) {
    static REF: OnceLock<(Vec<ScenarioSpec>, ZooBackend, Vec<ScenarioOutcome>)> = OnceLock::new();
    REF.get_or_init(|| {
        let cells = smoke_spec().expand().expect("smoke grid expands");
        assert!(
            cells.iter().any(|c| c.chaos.is_some()),
            "the property must cover chaos-enabled cells"
        );
        let backend = backend_for(&cells);
        let outcomes = run_cells(&cells, &backend, None).expect("sequential reference");
        (cells, backend, outcomes)
    })
}

/// Deterministic Fisher-Yates driven by an xorshift stream, so a proptest
/// seed maps to one fixed permutation.
fn permutation(n: usize, mut state: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Rows rendered with a fixed cell index, so rows are comparable across
/// permutations (the real renderer writes grid positions, which this
/// property holds fixed on purpose).
fn normalized_row(outcome: &ScenarioOutcome) -> String {
    csv_row(0, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any worker count, any execution order: same bytes per cell, and
    /// outcomes returned in the order the cells were submitted.
    #[test]
    fn sweep_rows_are_invariant_to_workers_and_order(
        workers in 1usize..5,
        perm_seed in 1u64..u64::MAX,
    ) {
        let (cells, backend, reference) = reference();
        let order = permutation(cells.len(), perm_seed);
        let shuffled: Vec<ScenarioSpec> =
            order.iter().map(|&i| cells[i].clone()).collect();
        let outcomes = run_cells(&shuffled, backend, Some(workers))
            .expect("shuffled sweep runs");
        prop_assert_eq!(outcomes.len(), cells.len());
        for (pos, &orig) in order.iter().enumerate() {
            prop_assert_eq!(
                normalized_row(&outcomes[pos]),
                normalized_row(&reference[orig]),
                "cell {} (grid index {}) diverged at {} workers",
                pos,
                orig,
                workers
            );
        }
    }
}
