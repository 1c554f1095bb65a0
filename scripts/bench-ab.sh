#!/usr/bin/env bash
# A/B the repo benchmark (BENCHMARK.json) between a base revision and the
# working tree.
#
#   scripts/bench-ab.sh                       # or: make bench-ab
#   BASE=<rev> PAIRS=10 WORKLOADS="serve-wal paper-sia" SEED=7 scripts/bench-ab.sh
#
# BASE defaults to `git merge-base HEAD main`: HEAD itself when the change
# is uncommitted on main, the fork point on a branch. The base tree is
# extracted with `git archive` into target/bench-ab/base and built there
# with its own CARGO_TARGET_DIR; the change is the working tree, built
# where BENCHMARK.json's command builds it. Each workload runs PAIRS
# (default 10) parent/change pairs of that command with `--seed SEED
# --seconds 25`, alternating which side runs first. WORKLOADS defaults to
# every workload BENCHMARK.json lists, SEED to 2025.
#
# For each end-to-end metric the report prints the parent median, the
# change median, their difference in percent, the pairs the change won
# (strictly better in the metric's direction) and the parent's
# interquartile range; "same" in place of the difference means every pair
# read the identical value on both sides. Raw results stay in target/bench-ab/runs.tsv. The
# script exits non-zero when any run reports "correct":false, or more
# failed operations than the other run of its pair.
#
# Every benchmark build rewrites the committed benchmark/Cargo.lock; when
# that file was clean before the run, the script restores it on exit.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "${BASE:-$(git merge-base HEAD main)}^{commit}")
pairs=${PAIRS:-10}
seed=${SEED:-2025}
workloads=${WORKLOADS:-$(jq -r '.workloads[].name' BENCHMARK.json)}
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
out=target/bench-ab
base_dir=$out/base
base_target=$root/$out/target
runs=$out/runs.tsv

if git diff --quiet -- benchmark/Cargo.lock; then
    trap 'git checkout -q -- benchmark/Cargo.lock' EXIT
fi

mkdir -p "$out"
if [[ ! -f $base_dir/.bench-ab-rev || $(cat "$base_dir/.bench-ab-rev") != "$base" ]]; then
    rm -rf "$base_dir"
    mkdir -p "$base_dir"
    git archive "$base" | tar -x -C "$base_dir"
    echo "$base" > "$base_dir/.bench-ab-rev"
fi

echo "bench-ab: parent $(git rev-parse --short "$base"), change = working tree" >&2
echo "bench-ab: building both sides" >&2
(cd "$base_dir" && CARGO_TARGET_DIR=$base_target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# One benchmark run on `side`: appends "workload pair side correct failed
# attempted metric=value..." to the runs file.
run() {
    local side=$1 workload=$2 pair=$3 line
    if [[ $side == parent ]]; then
        line=$(cd "$base_dir" && CARGO_TARGET_DIR=$base_target "${cmd[@]}" \
            --workload "$workload" --seed "$seed" --seconds 25 2>/dev/null | tail -n 1) || true
    else
        line=$("${cmd[@]}" --workload "$workload" --seed "$seed" --seconds 25 2>/dev/null \
            | tail -n 1) || true
    fi
    if ! jq -e '.metrics' <<<"$line" >/dev/null 2>&1; then
        echo "bench-ab: $side run $pair of $workload printed no result" >&2
        exit 1
    fi
    jq -r --arg w "$workload" --arg p "$pair" --arg s "$side" \
        '[$w, $p, $s, .correct, .failed, .attempted]
         + [.metrics | to_entries[] | "\(.key)=\(.value.value)"] | @tsv' <<<"$line" >> "$runs"
}

: > "$runs"
for workload in $workloads; do
    for pair in $(seq 1 "$pairs"); do
        echo "bench-ab: $workload pair $pair/$pairs" >&2
        if (( pair % 2 )); then
            run parent "$workload" "$pair"
            run change "$workload" "$pair"
        else
            run change "$workload" "$pair"
            run parent "$workload" "$pair"
        fi
    done
done

metrics=$(jq -r '[.end_to_end[] | "\(.name)=\(.better)"] | join(" ")' BENCHMARK.json)
awk -F'\t' -v metrics="$metrics" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Quantile q of the sorted a[1..n], interpolating between ranks.
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    BEGIN {
        nm = split(metrics, list, " ")
        for (i = 1; i <= nm; i++) { split(list[i], kv, "="); name[i] = kv[1]; better[kv[1]] = kv[2] }
    }
    {
        w = $1; p = $2; s = $3
        if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
        if ($4 != "true") { printf "bench-ab: %s pair %s: %s run reported correct=false\n", w, p, s; bad = 1 }
        failed[w, p, s] = $5; attempted[w, p, s] = $6
        for (f = 7; f <= NF; f++) { split($f, kv, "="); val[w, p, s, kv[1]] = kv[2] }
        npairs[w] = p > npairs[w] ? p : npairs[w]
    }
    END {
        printf "%-16s %-16s %14s %14s %9s %6s %12s\n", "workload", "metric", "parent", "change", "delta", "wins", "parent IQR"
        for (k = 1; k <= nw; k++) {
            w = order[k]; n = npairs[w]
            for (p = 1; p <= n; p++) {
                if (failed[w, p, "change"] > failed[w, p, "parent"]) {
                    printf "bench-ab: %s pair %d: change failed %d, parent %d\n", w, p, failed[w, p, "change"], failed[w, p, "parent"]; bad = 1
                }
                if (attempted[w, p, "change"] != attempted[w, p, "parent"])
                    printf "bench-ab: %s pair %d: attempted differs (parent %d, change %d)\n", w, p, attempted[w, p, "parent"], attempted[w, p, "change"]
            }
            for (i = 1; i <= nm; i++) {
                m = name[i]; wins = 0; same = 1
                for (p = 1; p <= n; p++) {
                    a[p] = val[w, p, "parent", m] + 0; b[p] = val[w, p, "change", m] + 0
                    if (better[m] == "lower" ? b[p] < a[p] : b[p] > a[p]) wins++
                    if (a[p] != b[p]) same = 0
                }
                sort(a, n); sort(b, n)
                pm = quantile(a, n, 0.5); cm = quantile(b, n, 0.5)
                delta = same ? "same" : pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
                printf "%-16s %-16s %14.6g %14.6g %9s %3d/%-2d %12.4g\n", w, m, pm, cm, delta, wins, n, quantile(a, n, 0.75) - quantile(a, n, 0.25)
            }
        }
        exit bad
    }' "$runs"
