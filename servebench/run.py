#!/usr/bin/env python3
"""Build servebench from source and run one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--rates R1,R2,R3]

Run from the repository root. The first run configures and builds the
benchmark (and the library under src/) in Release mode into
$CARGO_TARGET_DIR/servebench, default .bench_build/servebench; later
runs only rebuild what changed. The run prints each metric with its
unit, a host stamp, and as its last line one JSON object with the keys
correct, attempted, failed and metrics. The full result, with the host
stamp and the run's diagnostic figures, is also written to
results/<workload>-seed<N>-trace<T>.json in the build directory, and a
traced run writes its spans to spans-<workload>.csv there.

The exit status is 0 when the run completed and its outputs were
correct, 1 otherwise.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench"


def build(bdir):
    """Configures (once) and builds the servebench target; output goes
    to stderr so stdout stays the result."""
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs,
                    "--target", "servebench"],
                   check=True, stdout=sys.stderr)


def cpuinfo():
    model, mhz, avx2 = "unknown", None, False
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            key, val = key.strip(), val.strip()
            if key == "model name" and model == "unknown":
                model = val
            elif key == "cpu MHz" and mhz is None:
                mhz = float(val)
            elif key == "flags":
                avx2 = avx2 or "avx2" in val.split()
    except OSError:
        pass
    return model, mhz, avx2


def source_digest():
    """sha256 over the library and benchmark sources, so results from
    a checkout without git history still name the code they ran."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build_type(bdir):
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return None


def host_stamp(bdir):
    model, mhz, avx2 = cpuinfo()
    return {"nproc": os.cpu_count(), "cpu_model": model, "cpu_mhz": mhz,
            "avx2": avx2, "build_type": build_type(bdir),
            "git_revision": git_revision(), "source_digest": source_digest(),
            "machine": platform.machine()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rates", default="",
                    help="tenant_churn_open offered rates, Macc/s")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1

    results = bdir / "results"
    results.mkdir(exist_ok=True)
    cmd = [str(bdir / "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.rates:
        cmd += ["--rates", args.rates]
    if args.trace:
        cmd += ["--spans", str(bdir / f"spans-{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"servebench: no result (exit {proc.returncode})",
              file=sys.stderr)
        return 1

    correct = bool(out["correct"]) and proc.returncode == 0
    out["host"] = host_stamp(bdir)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(out, indent=1) + "\n")

    for f in out["failures"]:
        print(f"FAILED CHECK: {f}")
    for k, m in out["metrics"].items():
        print(f"{k:36s} {m['value']:14.6g} {m['unit']}")
    print("host " + json.dumps(out["host"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
