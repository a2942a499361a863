#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cohort|paper [--seed N] [--seconds S] [--trace 0|1]

The harness (perfbench/harness, a Rust package of its own) is built from
source first, into $CARGO_TARGET_DIR (default .bench_build); its fixed
parameters are constants there, described in perfbench/manifest.json with
the benchmark's predictions. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1. Each result is also written, stamped with the host and
source revision, to .bench_out/; a traced run writes its spans there too.

The exit code is 0 only when the run completed and every output check
passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def source_revision():
    """The git revision when run from a clone, else a digest of the sources."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for tree in (ROOT / "crates", ROOT / "vendor", HERE):
        sources += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def build(env):
    if not (ROOT / "crates").is_dir():
        fail(f"no repository sources next to {HERE.name}/ (expected {ROOT / 'crates'})")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "harness" / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the build took longer than {BUILD_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("the harness did not build")
    target = Path(env["CARGO_TARGET_DIR"])
    return (target if target.is_absolute() else ROOT / target) / "release" / "perfbench"


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    manifest = load_json(HERE / "manifest.json")
    workloads = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument(
        "--seed", type=int,
        help="workload seed (default: the campaign seed every table and figure uses)",
    )
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    seed_tag = "default" if args.seed is None else str(args.seed)
    stem = f"{args.workload}-seed{seed_tag}-trace{args.trace}"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace:
        command += ["--out", str(out_dir / f"{stem}-spans.json")]

    started = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"the harness printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines), file=sys.stderr)
        fail(f"the harness did not end with a result (exit {done.returncode})")

    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    problems = [
        f"{m['name']}: got {metrics.get(m['name'])!r}, want unit {m['unit']}"
        for m in expected
        if not isinstance(metrics.get(m["name"]), dict)
        or metrics[m["name"]].get("unit") != m["unit"]
        or not isinstance(metrics[m["name"]].get("value"), (int, float))
    ]
    extra = sorted(set(metrics) - {m["name"] for m in expected})
    if problems or extra or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines), file=sys.stderr)
        fail("the result does not match BENCHMARK.json: "
             + "; ".join(problems + [f"unexpected {n}" for n in extra]))

    stamp = {
        "nproc": len(os.sched_getaffinity(0)),
        "host_cpus": os.cpu_count(),
        "revision": source_revision(),
        "held_out_seed": manifest["held_out_seed"],
        "run_s": round(time.monotonic() - started, 3),
    }
    for line in lines[:-1]:
        print(line)
        if line.startswith("stamp "):
            stamp.update(json.loads(line[len("stamp "):]))
    print("stamp " + json.dumps(stamp))
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    sys.exit(0 if result["correct"] is True and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
