#!/usr/bin/env python3
"""Builds and runs the interlag benchmark.

    python3 benchmark/run.py --workload study|tune|fleet --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke

The first form builds the benchmark package (release, offline) and runs
one measurement; the last line of its standard output is the JSON
result. `--smoke` runs every workload at tiny sizes with the same output
checks, and asserts that the printed metric names and units match
BENCHMARK.json. See NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    binary = target / "release" / "interlag-perfbench"
    return binary if binary.exists() else None


def probe(cmd):
    """First line of a command's output, or None."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    line = out.stdout.strip().splitlines()
    return line[0] if out.returncode == 0 and line else None


def run_env():
    """The environment every measurement runs under, pinned and recorded."""
    env = dict(os.environ)
    # Sweeps kill covered thread-mode agents by unwinding; with backtraces
    # on, every kill would capture one.
    env["RUST_BACKTRACE"] = "0"
    env["PERFBENCH_RUSTC"] = probe(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_COMMIT"] = probe(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    return env


def measure(binary, args, capture):
    """Runs the binary once; returns (exit code, stdout)."""
    cmd = [str(binary)] + args + ["--out", str(ROOT / ".bench_out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=run_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: run timed out", file=sys.stderr)
        return 1, ""
    if not capture:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out


def smoke(binary):
    """Tiny-size runs of every workload, traced and untraced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", trace, "--smoke"]
            code, out = measure(binary, args, capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if result.get("correct") is not True:
                problems.append("outputs not correct")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"metric names or units differ (missing {missing}, extra {extra})")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload not in ("study", "tune", "fleet"):
        parser.error("--workload must be study, tune or fleet")
    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    code, _ = measure(binary, ["--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", args.trace],
                      capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
