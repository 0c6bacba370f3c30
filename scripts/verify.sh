#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, a
# warnings-as-errors clippy pass over every target (libs, bins, tests,
# benches, examples), and a smoke run of the round-execution benchmark
# (fails if the compiled executor is slower than the naive per-round
# path on the stock 250-node deployment). Run from anywhere; works on
# the repo root.
#
# Release fault-scan tests: the lossy slot scan's and the event wheel's
# unit tests (`faults::`, `sim::`) and their equivalence suites
# (`fault_equivalence`, `sim_equivalence`) run a second time under
# `--release`. Slot and retry arithmetic is exactly what debug builds
# (overflow panics) and release builds (wrapping) treat differently.
#
# Telemetry gate: the smoke benchmark runs twice, with M2M_TRACE=0 and
# M2M_TRACE=1. The two runs must print the same `smoke_digest=` line
# (tracing must be unobservable in results and costs), the traced run
# must export a non-empty counter snapshot, and the instrumentation's
# *disabled* path (a layer span, a counter and an obs check with both
# flags off) must cost the same in both runs within M2M_SMOKE_TOL
# percent (default 2 — the disabled path is the same code either way, so
# anything beyond noise means the flag leaked into it). Each run prints
# `smoke_disabled_ratio=`: the disabled path's fastest time over that of
# a fixed, flag-free reference loop of the same instruction mix
# (`m2m_bench::gauge`), read just before each probe. A slower or busier
# host slows both alike, so the two processes' ratios are compared, not
# their wall clocks. A host spell can still skew one ratio; the pair is
# retried up to 3 times and only persistent drift fails. Digest
# mismatches never retry.
#
# Performance gate: the smoke benchmark prints `smoke_batched_speedup=`,
# the lane-batched executor's rounds/sec over the *same-run* naive
# interpreter. The ratio is machine-independent (both sides share the
# process, the load, and the clock), so the gate holds an absolute floor
# against it: M2M_PERF_FLOOR (default 200x). A real regression in the
# batched hot path shows up as this ratio collapsing no matter how slow
# the box is.
#
# Resilience gate: a smoke run of the fault-tolerance benchmark (asserts
# the lossy executor at p=0 is bit-identical to the compiled path and
# that lossy batches are thread-count invariant, and must print the same
# per-scenario digests across two back-to-back runs), plus a schema
# check of the committed BENCH_resilience.json artifact. A full run
# (~0.2 s) must also reproduce every committed scenario digest, so a
# change to lossy semantics fails here instead of passing as a
# same-build comparison.
#
# Plan front-end gate: a smoke run of the scaling benchmark builds the
# 1k-node spec→plan front end (routing forest → topology intern → edge
# problems → serial solve) and prints `smoke_builds_per_sec=`, held
# against an absolute M2M_BUILD_FLOOR (default 2 builds/sec; ~14
# measured on the 1-core reference container). It also prints
# `smoke_forest_digest=`, an FNV-1a over the routing forest's directed
# edge set, which must be identical across two back-to-back runs — the
# arena-reuse fast path may never perturb routing structure.
#
# Observability gate: a smoke run of `m2m_obs` reconciles the per-node
# planes, the flight recorder's totals, and the global counters exactly,
# requires bit-identical outcome digests with the obs layer on and off,
# and holds the enabled-path overhead within M2M_OBS_TOL percent
# (default 5; the median on/off ratio over 41 off/on pairs of 96-round
# batches that alternate which side runs first, retried up to 3 times).
# The committed BENCH_obs.json artifact is schema-checked with
# `m2m_obs --check`.
#
# Service gate: a smoke run of the multi-tenant plan-service benchmark
# admits a 64-tenant fleet over one shared 1k-node deployment (the run
# itself asserts shared-substrate tenants are bit-identical to isolated
# sessions, the 64th admission costs at most 25% of the 1st, and
# checkpoint→restore→replay is byte-identical and solve-free) and prints
# `smoke_svc_admits_per_sec=`, held against an absolute M2M_SVC_FLOOR
# (default 5 admits/sec; ~150 measured on the 1-core reference
# container). It also prints `smoke_svc_digest=`, an FNV-1a over the
# final checkpoint text, which must be identical across two back-to-back
# runs. The committed BENCH_service.json is schema-checked alongside.
#
# Simulator gate: a smoke run of the discrete-event benchmark drives a
# lossy epoch at 1k nodes (the run itself asserts the simulator at p=0
# is bit-identical to the compiled executor and that the distributed
# per-edge cover solve matched the centralized plan) and prints
# `smoke_sim_events_per_sec=`, held against an absolute M2M_SIM_FLOOR
# (default 100k events/sec; ~14M measured on the 1-core reference
# container). It also prints `smoke_sim_digest=`, an FNV-1a over every
# outcome of the epoch, which must be identical across two back-to-back
# runs. The committed BENCH_sim.json is schema-checked alongside, and
# the 1k-node epoch (~0.3 s) must reproduce the committed 1k digest bit
# for bit — a cross-version pin on the simulator's lossy semantics.
#
# Artifact gate: `bench_runtime --check` schema-checks the committed
# BENCH_runtime.json (the JSON reader rejects repeated keys).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# The interpreted reference executor is feature-gated out of the default
# build; keep its equivalence property in the gate explicitly.
cargo test -q -p m2m-core --features test-oracle --test exec_equivalence
cargo test --release -q -p m2m-core --lib -- faults:: sim::
cargo test --release -q -p m2m-core --test fault_equivalence --test sim_equivalence
cargo fmt --all -- --check
cargo clippy --all-targets -- -D warnings

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

get() { grep "^$2=" "$tmpdir/$1.txt" | cut -d= -f2; }

# Correctness gates (digest, export) fail hard on the first attempt; the
# drift gate compares gauged ratios across two processes, and a host busy
# for a whole run can still skew one — retry the pair a few times and
# only fail on persistent drift.
tol="${M2M_SMOKE_TOL:-2}"
drift_ok=0
for attempt in 1 2 3; do
    M2M_TRACE=0 ./target/release/bench_runtime --smoke > "$tmpdir/off.txt"
    M2M_TRACE=1 M2M_TRACE_OUT="$tmpdir/trace.json" \
        ./target/release/bench_runtime --smoke > "$tmpdir/on.txt"

    digest_off=$(get off smoke_digest)
    digest_on=$(get on smoke_digest)
    if [ "$digest_off" != "$digest_on" ]; then
        echo "verify: FAIL — tracing changed benchmark results" \
             "($digest_off vs $digest_on)" >&2
        exit 1
    fi

    if ! [ -s "$tmpdir/trace.json" ] || ! grep -q '"counters"' "$tmpdir/trace.json"; then
        echo "verify: FAIL — traced run exported no counter snapshot" >&2
        exit 1
    fi

    if awk -v a="$(get off smoke_disabled_ratio)" -v b="$(get on smoke_disabled_ratio)" -v tol="$tol" '
    BEGIN {
        lo = (a < b) ? a : b; hi = (a < b) ? b : a
        pct = (hi - lo) / lo * 100
        printf "verify: disabled path %.4f vs %.4f gauges (%.2f%% apart, tol %s%%)\n", a, b, pct, tol
        exit (pct <= tol) ? 0 : 1
    }'; then
        drift_ok=1
        break
    fi
    echo "verify: timing drift beyond tolerance (attempt $attempt/3), retrying"
done
if [ "$drift_ok" != 1 ]; then
    echo "verify: FAIL — disabled-path timing drifted beyond tolerance on every attempt" >&2
    exit 1
fi

echo "verify: telemetry gate OK (digest $digest_off)"

floor="${M2M_PERF_FLOOR:-200}"
awk -v s="$(get off smoke_batched_speedup)" -v floor="$floor" '
BEGIN {
    printf "verify: batched path %.1fx the naive path (floor %sx)\n", s, floor
    exit (s + 0 >= floor + 0) ? 0 : 1
}' || { echo "verify: FAIL — batched speedup fell below M2M_PERF_FLOOR" >&2; exit 1; }

echo "verify: performance gate OK"

./target/release/bench_resilience --smoke > "$tmpdir/res1.txt"
./target/release/bench_resilience --smoke > "$tmpdir/res2.txt"
if ! diff <(grep '^smoke_digest_' "$tmpdir/res1.txt") \
          <(grep '^smoke_digest_' "$tmpdir/res2.txt"); then
    echo "verify: FAIL — resilience smoke digests drifted between runs" >&2
    exit 1
fi
./target/release/bench_resilience --check BENCH_resilience.json
./target/release/bench_resilience "$tmpdir/res.json" > /dev/null
if ! diff <(grep -E '"(scenario|digest)"' "$tmpdir/res.json") \
          <(grep -E '"(scenario|digest)"' BENCH_resilience.json); then
    echo "verify: FAIL — resilience digests differ from BENCH_resilience.json" >&2
    exit 1
fi

echo "verify: resilience gate OK ($(grep -c '^smoke_digest_' "$tmpdir/res1.txt") scenarios, committed digests reproduced)"

./target/release/bench_scale --smoke > "$tmpdir/scale1.txt"
./target/release/bench_scale --smoke > "$tmpdir/scale2.txt"
digest1=$(get scale1 smoke_forest_digest)
digest2=$(get scale2 smoke_forest_digest)
if [ "$digest1" != "$digest2" ]; then
    echo "verify: FAIL — routing forest digest drifted between runs" \
         "($digest1 vs $digest2)" >&2
    exit 1
fi
build_floor="${M2M_BUILD_FLOOR:-2}"
awk -v b="$(get scale1 smoke_builds_per_sec)" -v floor="$build_floor" '
BEGIN {
    printf "verify: plan front-end %.2f builds/sec at 1k nodes (floor %s)\n", b, floor
    exit (b + 0 >= floor + 0) ? 0 : 1
}' || { echo "verify: FAIL — front-end builds/sec fell below M2M_BUILD_FLOOR" >&2; exit 1; }

echo "verify: plan front-end gate OK (forest digest $digest1)"

# Observability gate: the flight-recorder smoke run must reconcile its
# per-node planes / recorder totals / global counters exactly, the
# obs-on and obs-off outcome digests must match bit for bit (both fail
# hard — they are deterministic), and the enabled-path overhead must
# stay within M2M_OBS_TOL percent of the disabled path (the median
# ratio of alternating off/on pairs; wall-clock, so retried like the
# telemetry drift gate). The committed BENCH_obs.json is schema-checked
# alongside.
obs_tol="${M2M_OBS_TOL:-5}"
obs_ok=0
for attempt in 1 2 3; do
    ./target/release/m2m_obs --smoke > "$tmpdir/obs.txt"
    if [ "$(get obs smoke_obs_digest_on)" != "$(get obs smoke_obs_digest_off)" ]; then
        echo "verify: FAIL — observability changed lossy outcomes" >&2
        exit 1
    fi
    if [ "$(get obs smoke_obs_reconcile)" != "exact" ]; then
        echo "verify: FAIL — obs books failed to reconcile" >&2
        exit 1
    fi
    if awk -v p="$(get obs smoke_obs_overhead_pct)" -v tol="$obs_tol" '
    BEGIN {
        printf "verify: obs enabled-path overhead %.2f%% (budget %s%%)\n", p, tol
        exit (p <= tol + 0) ? 0 : 1
    }'; then
        obs_ok=1
        break
    fi
    echo "verify: obs overhead beyond budget (attempt $attempt/3), retrying"
done
if [ "$obs_ok" != 1 ]; then
    echo "verify: FAIL — obs enabled-path overhead beyond budget on every attempt" >&2
    exit 1
fi
./target/release/m2m_obs --check BENCH_obs.json

echo "verify: observability gate OK"

./target/release/bench_sim --smoke > "$tmpdir/sim1.txt"
./target/release/bench_sim --smoke > "$tmpdir/sim2.txt"
sim_digest1=$(get sim1 smoke_sim_digest)
sim_digest2=$(get sim2 smoke_sim_digest)
if [ "$sim_digest1" != "$sim_digest2" ]; then
    echo "verify: FAIL — simulator epoch digest drifted between runs" \
         "($sim_digest1 vs $sim_digest2)" >&2
    exit 1
fi
sim_floor="${M2M_SIM_FLOOR:-100000}"
awk -v e="$(get sim1 smoke_sim_events_per_sec)" -v floor="$sim_floor" '
BEGIN {
    printf "verify: simulator %.0f events/sec at 1k nodes (floor %s)\n", e, floor
    exit (e + 0 >= floor + 0) ? 0 : 1
}' || { echo "verify: FAIL — simulator events/sec fell below M2M_SIM_FLOOR" >&2; exit 1; }
./target/release/bench_sim --check BENCH_sim.json
# Prints "<nodes> <digest>" per size row of a bench_sim artifact.
sim_digests() {
    awk '/"nodes":/ { gsub(/[^0-9]/, "", $2); n = $2 }
         /"digest":/ { gsub(/[",]/, "", $2); print n, $2 }' "$1"
}
./target/release/bench_sim --nodes 1000 "$tmpdir/sim1k.json" > /dev/null
sim_pin=$(sim_digests BENCH_sim.json | grep '^1000 ')
if [ -z "$sim_pin" ] || [ "$(sim_digests "$tmpdir/sim1k.json")" != "$sim_pin" ]; then
    echo "verify: FAIL — 1k simulator digest differs from BENCH_sim.json" \
         "($(sim_digests "$tmpdir/sim1k.json") vs ${sim_pin:-none})" >&2
    exit 1
fi

echo "verify: simulator gate OK (epoch digest $sim_digest1, committed 1k digest reproduced)"

./target/release/bench_service --smoke > "$tmpdir/svc1.txt"
./target/release/bench_service --smoke > "$tmpdir/svc2.txt"
svc_digest1=$(get svc1 smoke_svc_digest)
svc_digest2=$(get svc2 smoke_svc_digest)
if [ "$svc_digest1" != "$svc_digest2" ]; then
    echo "verify: FAIL — service checkpoint digest drifted between runs" \
         "($svc_digest1 vs $svc_digest2)" >&2
    exit 1
fi
svc_floor="${M2M_SVC_FLOOR:-5}"
awk -v a="$(get svc1 smoke_svc_admits_per_sec)" -v floor="$svc_floor" '
BEGIN {
    printf "verify: plan service %.2f admits/sec at 1k nodes (floor %s)\n", a, floor
    exit (a + 0 >= floor + 0) ? 0 : 1
}' || { echo "verify: FAIL — service admits/sec fell below M2M_SVC_FLOOR" >&2; exit 1; }
awk -v m="$(get svc1 smoke_svc_marginal_64_pct)" '
BEGIN {
    printf "verify: 64th tenant admission at %.2f%% of the 1st (budget 25%%)\n", m
    exit (m + 0 <= 25.0) ? 0 : 1
}' || { echo "verify: FAIL — 64th-tenant marginal cost breached the budget" >&2; exit 1; }
./target/release/bench_service --check BENCH_service.json

echo "verify: plan service gate OK (checkpoint digest $svc_digest1)"

./target/release/bench_runtime --check BENCH_runtime.json

echo "verify: artifact gate OK"
echo "verify: OK"
