//! Every committed sweep spec under `examples/sweeps/` must parse, expand
//! to at least one cell, and name only schedulers the [`ZooBackend`]
//! builds — the experiment printers `include_str!` these files, so a
//! broken spec would otherwise surface only when a printer runs.

mod sweep_support;

use rubick_bench::SCHEDULER_NAMES;
use rubick_sim::harness::grid::SweepSpec;
use rubick_sim::ScenarioBackend as _;
use sweep_support::{backend_for, sweeps_dir};

#[test]
fn shipped_sweep_specs_expand_to_buildable_cells() {
    let mut paths: Vec<_> = std::fs::read_dir(sweeps_dir())
        .expect("examples/sweeps exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    for name in ["chaos", "fig10", "fig11", "refit", "smoke", "table4"] {
        assert!(
            paths
                .iter()
                .any(|p| p.file_stem().is_some_and(|s| s == name)),
            "examples/sweeps/{name}.toml is missing"
        );
    }
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let cells = SweepSpec::parse(&text)
            .and_then(|spec| spec.expand())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!cells.is_empty(), "{} expands to no cells", path.display());
        let backend = backend_for(&cells);
        for cell in &cells {
            assert!(
                SCHEDULER_NAMES.contains(&cell.scheduler.as_str()),
                "{}: unknown scheduler in {}",
                path.display(),
                cell.label()
            );
            let (_, hook) = backend
                .scheduler_with_refit(cell)
                .unwrap_or_else(|e| panic!("{}: {}: {e}", path.display(), cell.label()));
            assert_eq!(hook.is_some(), cell.refit.is_some(), "{}", cell.label());
        }
    }
}
