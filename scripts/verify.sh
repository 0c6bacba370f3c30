#!/usr/bin/env bash
# Verification gate: release build, the full test suite, the release
# re-runs below, rustfmt, warnings-as-errors clippy over every target,
# then one loop over the benchmark bins. Run from anywhere.
#
# The fault-scan, sim, merge and slot-assignment unit tests and their
# equivalence suites run again under `--release`, where slot, retry and
# topological-position arithmetic wraps instead of panicking. (`cargo
# test` already runs the interpreted executor's equivalence suite: the
# bench crate turns on `m2m-core/test-oracle` for the whole workspace.)
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
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test --release -q -p m2m-core --lib -- faults:: sim:: schedule:: slots::
cargo test --release -q -p m2m-core --test fault_equivalence --test sim_equivalence
cargo fmt --all -- --check
cargo clippy --all-targets -- -D warnings

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

echo "verify: OK"
