#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The Rust package next to this file is built
in release mode into $CARGO_TARGET_DIR (default: .bench_build). With
--trace 0 the end-to-end binary runs once and its output is passed
through. With --trace 1 the end-to-end binary runs first, then the traced
binary on the same seed and op counts; the result carries the per-layer
metrics plus, for each end-to-end metric, the tracing overhead
(traced minus untraced, in the metric's unit). Both runs must produce
the same outcome digest. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(target: Path) -> None:
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Build chatter goes to stderr so stdout ends with the result line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")


def run(binary: Path, args: list) -> tuple:
    """Runs one binary to completion; returns (exit code, stdout lines)."""
    done = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, cwd=ROOT)
    return done.returncode, done.stdout.splitlines()


def tagged(lines: list, prefix: str):
    """The rest of the first line starting with `prefix`, or None."""
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def failed_result(why: str) -> str:
    print(f"# failed: {why}")
    return json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})


def result_line(lines: list, who: str) -> str:
    """The run's own result line if it printed one, else a failed result."""
    if lines:
        try:
            json.loads(lines[-1])
            return lines[-1]
        except ValueError:
            pass
    return failed_result(f"the {who} run printed no result")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(target)
    release = target / "release"
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds)]

    code, plain = run(release / "perfbench", common)
    if a.trace == "0" or code != 0:
        # A failed untraced run is reported as it is.
        print("\n".join(plain[:-1]))
        last = result_line(plain, "untraced")
        print(last)
        return code or int(not json.loads(last)["correct"])

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{a.workload}-seed{a.seed}.jsonl"
    code, traced = run(release / "perfbench_traced", common + ["--spans", str(spans)])
    print("\n".join(traced[:-1]))
    before, after = tagged(plain, "# e2e "), tagged(traced, "# e2e ")
    if before is None or after is None:
        print(result_line(traced, "traced"))
        return code or 1
    result = json.loads(traced[-1])
    before, after = json.loads(before), json.loads(after)
    # Energy and coverage are exact for a seed, and the digest check
    # below already proves tracing leaves every outcome unchanged.
    for name, m in before.items():
        if name in ("energy_mj_per_round", "coverage_mean"):
            continue
        result["metrics"][f"overhead.{name}"] = {
            "value": after[name]["value"] - m["value"], "unit": m["unit"]}
    same = tagged(plain, "# digest=") == tagged(traced, "# digest=")
    print(f"# digests {'match' if same else 'DIFFER'} across the untraced and traced runs")
    if not same:
        result["correct"] = False
        result["failed"] += 1
    print(json.dumps(result))
    return code if result["correct"] else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
