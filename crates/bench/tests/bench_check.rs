//! Opt-in perf regression gate for the incremental-round tier, the
//! refit update and the best-plan memo hit.
//!
//! `make bench-check` (or `BENCH=1 make verify`) replays the
//! `policy/incremental_round`, `model/refit_update` and
//! `model/best_plan/memo_hit` benchmarks into a scratch directory and
//! then runs this test with `BENCH_CHECK=1`: every gated entry in the
//! committed `BENCH_*.json` must exist in the fresh summary with a
//! `min_ns` no more than 20% slower. The *fastest*
//! sample is compared, not the mean — on a shared machine the mean
//! soaks up scheduler noise (observed >1.4x run-to-run on sub-ms
//! entries), while the minimum approximates the noise-free cost and
//! only moves when the code actually got slower. Without
//! `BENCH_CHECK=1` the gate is a no-op, so plain `cargo test` stays
//! timing-independent.
//!
//! The summaries are the criterion shim's line-per-record JSON; entries
//! are scanned textually (the workspace has no JSON parser dependency).

use std::path::PathBuf;

/// Allowed slowdown of a fresh minimum over the committed one.
const TOLERANCE: f64 = 1.20;
const TIER: &str = "policy/incremental_round/";

/// Extracts `(id, min_ns)` pairs from a shim summary.
fn parse_summary(body: &str) -> Vec<(String, f64)> {
    body.lines()
        .filter_map(|line| {
            let id_start = line.find("\"id\": \"")? + "\"id\": \"".len();
            let id_end = id_start + line[id_start..].find('"')?;
            let min_start = line.find("\"min_ns\": ")? + "\"min_ns\": ".len();
            let min_end = min_start + line[min_start..].find(',')?;
            let min: f64 = line[min_start..min_end].trim().parse().ok()?;
            Some((line[id_start..id_end].to_string(), min))
        })
        .collect()
}

/// Where `make bench-check` writes the fresh summaries.
fn bench_check_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-check")
}

/// The fresh summary `$fresh_env`, else `name` under [`bench_check_dir`].
fn fresh_summary(fresh_env: &str, name: &str) -> PathBuf {
    std::env::var(fresh_env)
        .map(PathBuf::from)
        .unwrap_or_else(|_| bench_check_dir().join(name))
}

/// Compares one gated tier: every committed entry under `tier` must be
/// present in the fresh summary at `fresh_path` with a `min_ns` within
/// [`TOLERANCE`].
fn check_tier(committed_name: &str, fresh_path: PathBuf, tier: &str) {
    let committed_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(committed_name);

    let committed = std::fs::read_to_string(&committed_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", committed_path.display()));
    let fresh = std::fs::read_to_string(&fresh_path).unwrap_or_else(|e| {
        panic!(
            "cannot read fresh summary {} (run the bench first, e.g. `make bench-check`): {e}",
            fresh_path.display()
        )
    });

    let baseline: Vec<(String, f64)> = parse_summary(&committed)
        .into_iter()
        .filter(|(id, _)| id.starts_with(tier))
        .collect();
    assert!(
        !baseline.is_empty(),
        "committed {} has no {tier} entries — refresh it with `make bench`",
        committed_path.display()
    );
    let current = parse_summary(&fresh);

    let mut failures = Vec::new();
    for (id, committed_min) in &baseline {
        match current.iter().find(|(cid, _)| cid == id) {
            None => failures.push(format!("{id}: missing from fresh summary")),
            Some((_, fresh_min)) => {
                let ratio = fresh_min / committed_min;
                eprintln!(
                    "bench_check: {id}: committed min {committed_min:.0} ns, \
                     fresh min {fresh_min:.0} ns ({ratio:.2}x)"
                );
                if ratio > TOLERANCE {
                    failures.push(format!(
                        "{id}: min {fresh_min:.0} ns vs committed {committed_min:.0} ns \
                         ({ratio:.2}x > {TOLERANCE:.2}x tolerance)"
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{tier} regressions:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn incremental_round_has_not_regressed() {
    if std::env::var("BENCH_CHECK").as_deref() != Ok("1") {
        eprintln!("bench_check: skipped (set BENCH_CHECK=1 to enable; see `make bench-check`)");
        return;
    }
    check_tier(
        "BENCH_scheduling.json",
        fresh_summary("BENCH_CHECK_FRESH", "BENCH_scheduling.json"),
        TIER,
    );
}

#[test]
fn refit_update_has_not_regressed() {
    if std::env::var("BENCH_CHECK").as_deref() != Ok("1") {
        eprintln!("bench_check: skipped (set BENCH_CHECK=1 to enable; see `make bench-check`)");
        return;
    }
    check_tier(
        "BENCH_modeling.json",
        fresh_summary("BENCH_CHECK_FRESH_MODELING", "BENCH_modeling.json"),
        "model/refit_update/",
    );
}

/// The Rubick policy's best-plan lookup: a memo hit through a resolved
/// row. Replayed into its own directory, since a filtered run writes a
/// partial `BENCH_modeling.json`.
#[test]
fn memo_hit_has_not_regressed() {
    if std::env::var("BENCH_CHECK").as_deref() != Ok("1") {
        eprintln!("bench_check: skipped (set BENCH_CHECK=1 to enable; see `make bench-check`)");
        return;
    }
    check_tier(
        "BENCH_modeling.json",
        fresh_summary("BENCH_CHECK_FRESH_MEMO", "memo_hit/BENCH_modeling.json"),
        "model/best_plan/memo_hit/",
    );
}

#[test]
fn summary_parser_reads_shim_format() {
    let body = r#"{
  "benchmarks": [
    {"id": "policy/incremental_round/full/1024", "mean_ns": 5500000.0, "median_ns": 5200000.0, "min_ns": 5000000.0, "samples": 10, "iters_per_sample": 5, "threads_effective": 8},
    {"id": "policy/incremental_round/clean/1024", "mean_ns": 300000.0, "median_ns": 260000.0, "min_ns": 250000.5, "samples": 10, "iters_per_sample": 80, "threads_effective": 8}
  ]
}
"#;
    let parsed = parse_summary(body);
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed[0].0, "policy/incremental_round/full/1024");
    assert!((parsed[0].1 - 5_000_000.0).abs() < 1e-6);
    assert!((parsed[1].1 - 250_000.5).abs() < 1e-6);
}
