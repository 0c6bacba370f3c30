#!/usr/bin/env bash
# Verification gate: release build, the full test suite, the release
# re-runs below, rustfmt, warnings-as-errors clippy over every target, a
# check of the library crates alone, warnings-as-errors rustdoc, then one
# loop over the benchmark bins. Run from anywhere.
#
# The lossy delivery-pass and settle, sim, merge and slot-assignment
# unit tests (among them the rescan and all-kinds gated-fold oracle
# proptests) and their equivalence suites run again under `--release`,
# where slot, retry and topological-position arithmetic wraps instead of
# panicking; so do the
# service, session, config and textio unit tests (checkpoint restore's
# tenant-id arithmetic and the hostile-input proptests of all three
# parsers: checkpoints, `Config` and `textio` scenario files),
# the routing arena's unit tests and the whole netsim crate (link
# quality, ETX routing and its oracle proptest), where a path sum past
# `u64::MAX` would wrap. (`cargo test` already runs the interpreted executor's
# equivalence suite: the bench crate turns on `m2m-core/test-oracle` for
# the whole workspace.)
#
# For the same reason neither the build nor the tests show that the
# library crates compile without `test-oracle`: `cargo check -p ... --lib`
# selects them alone, so the feature stays off. Their docs build with
# `-D warnings`, which fails on a broken intra-doc link, such as one left
# dangling by a deleted module or one that reaches an item only a
# feature compiles.
#
# The bench loop names bins and nothing else: each bin declares its
# gates as data at its top (`m2m_bench::harness`). Per bin, `--smoke`
# runs untraced, then with M2M_TRACE=1 (which must export a non-empty
# counter snapshot); each prints `gate <key> <kind> <value> [<bound>
# <attempts>]` lines, and `judge` holds them to their kind: `same`
# (equal in both runs), `near` (within <bound> percent), `min` / `max`
# (a bound on the untraced run). A failed gate fails the script unless
# every failed gate declares more attempts; then both smokes run again.
# Last, `--check` validates the committed BENCH_*.json and re-runs the
# rows the bin pins, which must reproduce their digests.
#
# The pipeline benchmark (`perfbench/`, its own package) links the
# crates' public items, so the script builds it and runs each workload
# for one traced second: the result line must read `"correct": true`
# and `"failed": 0`, the `# digest=` line must equal the workload's
# pinned outcome digest at `--seed 1 --seconds 1` (an engine change
# that claims no behaviour change leaves all three alone), and the run
# must leave `perfbench/` and BENCHMARK.json as they were (the build
# goes to the ignored `.bench_build/`, the span logs to the ignored
# `perfbench/out/`).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test --release -q -p m2m-core --lib -- faults:: sim:: schedule:: slots:: service:: session:: config:: textio::
cargo test --release -q -p m2m-core --test fault_equivalence --test sim_equivalence
cargo test --release -q -p m2m-graph --lib -- scratch::
cargo test --release -q -p m2m-netsim
cargo fmt --all -- --check
cargo clippy --all-targets -- -D warnings
cargo check -q -p m2m-core -p m2m-graph -p m2m-netsim --lib
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps -p m2m-core -p m2m-graph -p m2m-netsim -p m2m-telemetry

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "verify: FAIL — $*" >&2
    exit 1
}

# judge BIN UNTRACED TRACED: prints one verdict per gate; exits 0 when
# every gate holds, else with the fewest attempts any failed gate allows.
judge() {
    awk -v bin="$1" '
    FNR == 1 { file++ }
    $1 != "gate" { next }
    file == 1 { n++; key[n] = $2; kind[$2] = $3; a[$2] = $4; bound[$2] = $5
                tries[$2] = ($6 == "") ? 1 : $6 + 0; next }
    { b[$2] = $4 }
    END {
        allow = (n == 0) ? 1 : 0
        if (n == 0) print "verify: " bin ": the smoke printed no gates"
        for (i = 1; i <= n; i++) {
            k = key[i]; x = a[k]; ok = (k in b); y = ok ? b[k] : "missing"
            lo = (x + 0 < y + 0) ? x : y; hi = x + y - lo
            if (kind[k] == "same") ok = ok && (x "") == (y "")
            else if (kind[k] == "near") ok = ok && lo > 0 && (hi - lo) / lo * 100 <= bound[k] + 0
            else if (kind[k] == "min") ok = ok && x + 0 >= bound[k] + 0
            else if (kind[k] == "max") ok = ok && x + 0 <= bound[k] + 0
            else ok = 0
            printf "verify: %s %s %s %s, traced %s (bound %s): %s\n", bin, kind[k], k, x, y,
                (bound[k] == "") ? "-" : bound[k], ok ? "ok" : "FAIL"
            if (!ok && (allow == 0 || tries[k] < allow)) allow = tries[k]
        }
        exit allow
    }' "$2" "$3"
}

for bin in bench_optimizer bench_runtime bench_resilience bench_scale bench_sim bench_service m2m_obs; do
    attempt=1
    while :; do
        M2M_TRACE=0 "./target/release/$bin" --smoke > "$tmp/off.txt"
        rm -f "$tmp/trace.json"
        M2M_TRACE=1 M2M_TRACE_OUT="$tmp/trace.json" "./target/release/$bin" --smoke > "$tmp/on.txt"
        grep -q '"counters": {$' "$tmp/trace.json" ||
            fail "$bin: the traced smoke exported no counter snapshot"
        allowed=0
        judge "$bin" "$tmp/off.txt" "$tmp/on.txt" || allowed=$?
        [ "$allowed" = 0 ] && break
        [ "$attempt" -lt "$allowed" ] || fail "$bin: gate failed on attempt $attempt of $allowed"
        echo "verify: $bin: gate failed on attempt $attempt of $allowed, retrying"
        attempt=$((attempt + 1))
    done
    "./target/release/$bin" --check
done

for pin in lossy_rounds=079f3d13d662c6bc churn_adapt=663f9192c24f44db tenant_stream=e328d3d66f2f8100; do
    workload=${pin%=*}
    out=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1) ||
        fail "perfbench $workload exited non-zero: $(tail -n 1 <<< "$out")"
    last=$(tail -n 1 <<< "$out")
    case "$last" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *) fail "perfbench $workload: ${last:0:200}" ;;
    esac
    digest=$(grep -m 1 '^# digest=' <<< "$out") || fail "perfbench $workload printed no digest"
    [ "$digest" = "# digest=${pin#*=}" ] ||
        fail "perfbench $workload: $digest, pinned ${pin#*=}"
    echo "verify: perfbench $workload: ok, ${digest#\# }"
done
[ -z "$(git status --porcelain perfbench BENCHMARK.json)" ] ||
    fail "the perfbench runs changed perfbench/ or BENCHMARK.json"

echo "verify: OK"
