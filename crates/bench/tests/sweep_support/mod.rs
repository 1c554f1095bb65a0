//! Shared support for the sweep-level test tier (`sweep_golden`,
//! `sweep_equivalence`, `sweep_specs`): the committed sweep specs, a
//! [`ZooBackend`] covering a cell list, and the golden-file helper.
//!
//! The tests run through the same [`ZooBackend`] as the CLI and the
//! experiment printers, so they pin the harness semantics every caller
//! sees without going through the binary.

#![allow(dead_code)]

use rubick_bench::ZooBackend;
use rubick_sim::harness::grid::SweepSpec;
use rubick_sim::ScenarioSpec;
use std::path::PathBuf;

/// The committed sweep spec directory (`examples/sweeps/`).
pub fn sweeps_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/sweeps")
}

/// The committed smoke sweep spec (`examples/sweeps/smoke.toml`), parsed.
/// The golden suite runs exactly what `make sweep-smoke` runs, so an edit
/// to the example file shows up as a golden diff, not a silent drift.
pub fn smoke_spec() -> SweepSpec {
    let path = sweeps_dir().join("smoke.toml");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    SweepSpec::parse(&text).expect("committed smoke spec parses")
}

/// A backend with the zoo profiled for every seed a cell list uses.
pub fn backend_for(cells: &[ScenarioSpec]) -> ZooBackend {
    ZooBackend::prepare(cells.iter().map(|c| c.seed)).expect("zoo profiling")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Golden-file comparison with `UPDATE_GOLDEN=1` regeneration, identical
/// in behavior to the `golden_traces` helper in `rubick-core`.
pub fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated golden file {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "sweep output drifted from {} — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}
