# Developer entry points for the Rubick reproduction.
#
#   make verify        format check + lints + full test suite + sweep smoke
#                      (the CI gate)
#   make sweep-smoke   run the small end-to-end sweep spec twice (sequential
#                      and parallel) and fail unless the CSVs are
#                      byte-identical
#   make serve-smoke   pipe the committed serve session script through
#                      `rubick serve` and fail unless the reply stream is
#                      byte-identical to the committed expectation
#   make exp-smoke     run the Table 4, Fig. 10, Fig. 11 and ablation
#                      printers in release and fail on a non-zero exit
#   make refit-smoke   check that a --refit run publishes refits and
#                      that an inert --refit hook changes nothing about
#                      a frozen-model run
#   make skip-smoke    run the 406-job base, mt and bp traces through a
#                      debug build of the Rubick policy, which walks every
#                      skipped plan search and checks every rollback, and
#                      runs every visit the dirty tracker skips on a copy
#                      and checks that it is a no-op, then
#                      the mt trace with --refit, whose debug fits check
#                      every read-set Jacobian entry and early reject, and
#                      that every damping candidate stays in the parameter
#                      box with its held parameters unmoved; every
#                      debug run checks each negligible-overlap shortcut
#                      of f_overlap against the full formula; every
#                      Rubick and Sia run re-resolves each per-job cache
#                      hit and checks after every refresh that each
#                      cache entry's id and spec Arc match its job's
#                      slice position, and every Rubick run also recomputes each
#                      skip-certificate hit and each best-plan memo hit
#                      and miss, including CPU steps a layout's CPU-free
#                      verdict answers, whose offload plans must stay at
#                      or below the verdict's ceiling (the mt --refit and --chaos
#                      runs cover cache clears on a refit and on node
#                      loss); then Sia on base, on mt --refit and on mt
#                      with node failures, whose debug build rebuilds
#                      every DP-rescale curve miss from the job's own plan
#                      against its DP-free key and every round's
#                      water-fill order from the jobs' cached jumps,
#                      and Rubick on mt with node and launch failures,
#                      whose debug engine checks its job table after
#                      every step,
#                      then Rubick on mt with --refit and --chaos, where
#                      most GPU-reach skips fire
#   make benchmark-test  unit tests of the repo benchmark package
#                      (benchmark/), which builds against the workspace
#                      crates through path dependencies
#   make bench         scheduling-round, model and simulation benchmarks
#                      (BENCH_*.json)
#   make bench-check   replay policy/incremental_round, model/refit_update
#                      and model/best_plan/memo_hit and fail on a >20%
#                      regression of the fastest sample vs the committed
#                      BENCH_*.json summaries
#   make bench-ab      run the repo benchmark (BENCHMARK.json) in alternating
#                      pairs on a base revision and the working tree and
#                      print each end-to-end metric's medians, change in
#                      percent, pairs won and parent IQR (scripts/bench-ab.sh;
#                      BASE, PAIRS, WORKLOADS, SEED; needs jq)
#   make build         release build of the whole workspace
#   make loc           count the *.rs lines under crates/ and src/: shims,
#                      tests/benches, inline test modules, and the rest
#
# `BENCH=1 make verify` additionally runs the bench-check perf gate
# (opt-in: bench timings are machine-dependent, so the default CI gate
# stays deterministic).

.PHONY: verify fmt lint test build loc bench bench-ab bench-check bench-smoke sweep-smoke exp-smoke serve-smoke refit-smoke skip-smoke benchmark-test

verify: fmt lint test sweep-smoke exp-smoke serve-smoke refit-smoke skip-smoke bench-smoke benchmark-test

ifeq ($(BENCH),1)
verify: bench-check
endif

fmt:
	cargo fmt --check

# Print policy: every library crate carries
# `#![deny(clippy::print_stdout, clippy::print_stderr)]` at the crate
# root — all human-readable output flows through rubick-cli (the one
# exempt crate, where src/output.rs and src/main.rs are the only print
# sites). `-D warnings` below promotes any violation to a build error.
#
# The benchmark package (its own [workspace], see benchmark-test) is
# linted too: it compiles against the workspace's public API, including
# compatibility items nothing inside the workspace uses any more.
lint:
	cargo clippy --all-targets -- -D warnings
	cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

test:
	cargo build --release
	cargo test --workspace -q

build:
	cargo build --release

# Line counts of the Rust sources, the unit of the deletion budget.
# "tests/benches" is every file under a tests/ or benches/ directory
# outside the shims. "inline tests" is every other file's top-level
# `#[cfg(test)] mod name { ... }` block, plus every out-of-line test
# module file named tests.rs, so "rest" counts product code only.
loc:
	@shims=$$(find crates/shims -name '*.rs' -print0 | xargs -0 cat | wc -l); \
	tests=$$(find crates src -name '*.rs' -not -path 'crates/shims/*' \
		\( -path '*/tests/*' -o -path '*/benches/*' \) -print0 | xargs -0 cat | wc -l); \
	inline=$$(find crates src -name '*.rs' -not -path 'crates/shims/*' \
		-not -path '*/tests/*' -not -path '*/benches/*' -print0 | xargs -0 awk ' \
		FNR == 1 { intest = pend = 0 } \
		FILENAME ~ /\/tests\.rs$$/ { n++; next } \
		intest { n++; if (/^}/) intest = 0; next } \
		pend { pend = 0; if (/^mod [A-Za-z0-9_]+ \{/) { intest = 1; n += 2; next } } \
		/^#\[cfg\(test\)\]/ { pend = 1 } \
		END { print n + 0 }'); \
	total=$$(find crates src -name '*.rs' -print0 | xargs -0 cat | wc -l); \
	printf '%-14s %7d\n' shims $$shims tests/benches $$tests \
		'inline tests' $$inline rest $$((total - shims - tests - inline)) \
		total $$total

# A/B of the repo benchmark against BASE (default: the merge-base with
# main). Not part of verify: its timings depend on the host. Make passes
# BASE, PAIRS, WORKLOADS and SEED given on its command line through the
# environment.
bench-ab:
	scripts/bench-ab.sh

# The benchmark package has its own [workspace] and is not a member of the
# root one, so neither `test` nor `lint` compiles it. This keeps the API it
# uses (RegistryRefitter, RefitConfig, the harness) from drifting under it.
benchmark-test:
	cargo test --offline --manifest-path benchmark/Cargo.toml

# End-to-end sweep gate: the smoke spec runs sequentially and with 4
# workers; any byte difference between the two CSVs (or a nonzero exit)
# fails the target. Scratch output lives under target/ so nothing
# committed is touched.
sweep-smoke:
	cargo build --release -p rubick-cli
	mkdir -p target/sweep-smoke
	target/release/rubick sweep examples/sweeps/smoke.toml --log-level error \
		--no-timings --out target/sweep-smoke/seq.csv
	target/release/rubick sweep examples/sweeps/smoke.toml --log-level error \
		--no-timings --parallelism 4 --out target/sweep-smoke/par.csv
	cmp target/sweep-smoke/seq.csv target/sweep-smoke/par.csv
	@echo "sweep-smoke: byte-identical at 1 and 4 workers"

# Experiment-printer gate: the printers that run committed sweep specs
# (table4, fig10, fig11) and the ablations must exit cleanly. Their
# numbers are not compared here; each row matches `rubick sweep` on the
# same spec by construction. Output goes to target/.
exp-smoke:
	cargo build --release -p rubick-bench
	mkdir -p target/exp-smoke
	for exp in exp_table4 exp_fig10 exp_fig11 exp_ablations; do \
		target/release/$$exp > target/exp-smoke/$$exp.txt 2>/dev/null || exit 1; \
	done
	@echo "exp-smoke: table4, fig10, fig11 and ablation printers ran"

# End-to-end serve gate: a scripted NDJSON session (submit/advance/
# status/cancel/shutdown) pipes through `rubick serve` and the reply
# stream — including the final report line — must be byte-identical to
# the committed golden. Also round-trips the write-ahead log: a second
# run journals the same session to a scratch log, restarts from it, and
# after its `recovered` line the restarted daemon must answer `status`,
# `shutdown` and the report byte-identically to the golden's last three
# lines.
serve-smoke:
	cargo build --release -p rubick-cli
	mkdir -p target/serve-smoke
	target/release/rubick serve --scheduler rubick --seed 7 --nodes 2 \
		--log-level error < examples/serve/smoke-session.jsonl \
		> target/serve-smoke/replies.jsonl
	cmp examples/serve/smoke-expected.jsonl target/serve-smoke/replies.jsonl
	rm -f target/serve-smoke/session.log
	target/release/rubick serve --scheduler rubick --seed 7 --nodes 2 \
		--log-level error --log target/serve-smoke/session.log \
		< examples/serve/smoke-session.jsonl > /dev/null
	printf '{"type":"status"}\n{"type":"shutdown"}\n' | \
		target/release/rubick serve --scheduler rubick --seed 7 --nodes 2 \
		--log-level error --log target/serve-smoke/session.log \
		> target/serve-smoke/recovered.jsonl
	head -n 1 target/serve-smoke/recovered.jsonl | grep -q '^{"type":"recovered",'
	tail -n +2 target/serve-smoke/recovered.jsonl > target/serve-smoke/recovered-tail.jsonl
	tail -n 3 examples/serve/smoke-expected.jsonl | \
		cmp - target/serve-smoke/recovered-tail.jsonl
	@echo "serve-smoke: reply stream matches golden; log recovery round-trips"

# End-to-end refit gate: a --refit run must publish at least one refit
# (its CSV then carries a model_refits row), and a frozen-model run must
# not care whether the refit plumbing is compiled in — its CSV is
# byte-identical with and without a refit hook whose threshold no shift
# can reach. Scratch output lives under target/.
refit-smoke:
	cargo build --release -p rubick-cli
	mkdir -p target/refit-smoke
	target/release/rubick run --scheduler rubick --jobs 40 --seed 7 \
		--refit --csv --log-level error > target/refit-smoke/refit.csv
	grep -q '^model_refits,' target/refit-smoke/refit.csv
	target/release/rubick run --scheduler rubick --jobs 40 --seed 7 \
		--csv --log-level error > target/refit-smoke/frozen.csv
	target/release/rubick run --scheduler rubick --jobs 40 --seed 7 \
		--refit --refit-threshold 1000000 --csv --log-level error \
		> target/refit-smoke/frozen-hook.csv
	cmp target/refit-smoke/frozen.csv target/refit-smoke/frozen-hook.csv
	@echo "refit-smoke: a live refit run publishes; inert hook changes nothing"

# End-to-end skip gate: debug builds walk every plan search that
# `rolls_back_untouched` skips on a clone, assert it leaves the state
# unchanged, and check every rollback against a copy. Full traces reach
# layouts the unit tests do not, so a skip that is not exact panics here.
# Every best-plan memo hit, answered through the job's cached memo row, is
# recomputed by the scan and compared bit for bit on every Rubick run, and
# so is every miss, including the split misses that re-score only the
# offload plans after a CPU step and the CPU steps a layout's CPU-free
# verdict answers without scoring, whose offload plans must also score
# at or below the ceiling the verdict stored. The --refit run resets the memo rows of
# each refitted model while the other models' rows stay. The --refit run does the same for the fit kernel: every Jacobian entry
# is re-evaluated in full and every early-rejected damping candidate is
# costed in full, over thousands of live refit windows. Every damping
# candidate of every fit, the profile fits each run starts with and the
# --refit run's refits, must lie inside the parameter box, and every
# parameter the step holds on a bound must keep its bits. The Sia runs
# re-resolve every per-job cache hit from the registry and check every
# curve's next rise against the forward walk; the --refit one publishes
# refits, so the cache is invalidated on a live trace. Every Sia run
# also rebuilds its water-fill order from each job's cached chain of
# jumps and compares it with the order kept across rounds; the Sia
# --chaos run loses and recovers nodes, so the schedulable GPUs move and
# every loss and recovery rebuilds the order. The Rubick --chaos run
# evicts jobs from failed nodes and fails launches, so the engine's
# eviction and launch-failure paths, its job-table assertions and
# Rubick's skip checks on a ledger with down nodes all run in debug.
# The last run combines --refit and --chaos, as the mt-refit-chaos
# benchmark workload does: there most queued guaranteed searches skip on
# the GPU-reach certificate, and each one is walked and checked.
skip-smoke:
	cargo build -p rubick-cli
	for trace in base mt bp; do \
		target/debug/rubick run --scheduler rubick --trace $$trace --seed 7 \
			--log-level error > /dev/null || exit 1; \
	done
	target/debug/rubick run --scheduler rubick --trace mt --seed 7 --refit \
		--log-level error > /dev/null
	target/debug/rubick run --scheduler sia --trace base --seed 7 \
		--log-level error > /dev/null
	target/debug/rubick run --scheduler sia --trace mt --seed 7 --refit \
		--log-level error > /dev/null
	target/debug/rubick run --scheduler sia --trace mt --seed 7 \
		--chaos examples/chaos/smoke.txt --log-level error > /dev/null
	target/debug/rubick run --scheduler rubick --trace mt --seed 7 \
		--chaos examples/chaos/smoke.txt --log-level error > /dev/null
	target/debug/rubick run --scheduler rubick --trace mt --seed 7 --refit \
		--chaos examples/chaos/smoke.txt --log-level error > /dev/null
	@echo "skip-smoke: every skipped search matches its walk on base, mt and bp;"
	@echo "skip-smoke: every visit the dirty tracker skips is a no-op on its copy, on every Rubick run;"
	@echo "skip-smoke: every skip-certificate hit is recomputed and matches its chain on every Rubick run;"
	@echo "skip-smoke: every best-plan memo hit through a job's row matches its scan on every Rubick run;"
	@echo "skip-smoke: every best-plan memo miss, split, full or CPU-free, matches its full scan on every Rubick run;"
	@echo "skip-smoke: every read-set Jacobian entry and early reject matches on mt --refit;"
	@echo "skip-smoke: every fit's damping candidates stay in the box and its held parameters keep their bits, in every run's profile fits and on mt --refit;"
	@echo "skip-smoke: every negligible-overlap shortcut matches the full f_overlap formula on every run;"
	@echo "skip-smoke: every per-job cache hit is re-resolved and matches, and every refresh leaves each entry at its job's position, on every Rubick and Sia run;"
	@echo "skip-smoke: every Sia next rise and DP-rescale curve under its DP-free key matches on base and mt --refit;"
	@echo "skip-smoke: every Sia water-fill order kept across rounds matches its rebuild, on base, mt --refit and mt with node failures;"
	@echo "skip-smoke: every skip and job-table check holds on mt with node and launch failures;"
	@echo "skip-smoke: every GPU-reach skip rolls back on its walk and every cached reach matches its rescan, on every Rubick run and on mt --refit --chaos"

bench:
	cargo bench -p rubick-bench --bench scheduling
	cargo bench -p rubick-bench --bench modeling
	cargo bench -p rubick-bench --bench simulation

# Quick sanity pass over the incremental tier: BENCH_SMOKE trims the job
# sizes to 1024 and one sample is taken per variant, so the whole run —
# including the pre-bench equivalence assertions (incremental == full,
# delta-fed == full, O(delta) classification) — finishes in seconds.
# This is a correctness gate, not a perf gate: timings are discarded
# (scratch BENCH_OUT_DIR), only the asserts matter.
bench-smoke:
	mkdir -p target/bench-smoke
	BENCH_SMOKE=1 BENCH_SAMPLE_SIZE=1 BENCH_FILTER=incremental_round \
		BENCH_OUT_DIR=$(CURDIR)/target/bench-smoke \
		cargo bench -p rubick-bench --bench scheduling
	@echo "bench-smoke: incremental-round equivalence asserts passed"

# Replays only the incremental tier, model/refit_update and the memo hit
# (BENCH_FILTER) into scratch dirs so the committed summaries are never
# clobbered (the two modeling replays write to separate dirs), then
# compares each entry's fastest sample (min_ns — robust to shared-machine
# noise, unlike the mean). The replay doubles the sample count: the min
# over 20 samples sits at or below a committed 10-sample min unless the
# code genuinely got slower.
bench-check:
	mkdir -p target/bench-check
	BENCH_SAMPLE_SIZE=20 BENCH_FILTER=incremental_round \
		BENCH_OUT_DIR=$(CURDIR)/target/bench-check \
		cargo bench -p rubick-bench --bench scheduling
	BENCH_SAMPLE_SIZE=20 BENCH_FILTER=refit_update \
		BENCH_OUT_DIR=$(CURDIR)/target/bench-check \
		cargo bench -p rubick-bench --bench modeling
	mkdir -p target/bench-check/memo_hit
	BENCH_SAMPLE_SIZE=20 BENCH_FILTER=memo_hit \
		BENCH_OUT_DIR=$(CURDIR)/target/bench-check/memo_hit \
		cargo bench -p rubick-bench --bench modeling
	BENCH_CHECK=1 BENCH_CHECK_FRESH=$(CURDIR)/target/bench-check/BENCH_scheduling.json \
		BENCH_CHECK_FRESH_MODELING=$(CURDIR)/target/bench-check/BENCH_modeling.json \
		BENCH_CHECK_FRESH_MEMO=$(CURDIR)/target/bench-check/memo_hit/BENCH_modeling.json \
		cargo test -p rubick-bench --test bench_check -- --nocapture
