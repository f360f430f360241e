#!/usr/bin/env python3
"""Build and run the grid-market benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test     # unit tests of the benchmark logic,
                                        # then BENCHMARK.json vs the catalog

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs only re-check the build. Build
logs go to stderr; the perfbench binary's stdout is passed through, so
the last line is the JSON result. Exits non-zero when the build, the run
or an output check fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_logged(cmd, env, log):
    with open(log, "ab") as out:
        return subprocess.run(cmd, env=env, stdout=out, stderr=subprocess.STDOUT,
                           check=False).returncode


def build(targets, env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no repository sources under {ROOT}/src",
              file=sys.stderr)
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        if run_logged(cmd, env, log) != 0:
            tail = log.read_text(errors="replace").splitlines()[-40:]
            print("\n".join(tail), file=sys.stderr)
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return out


def check_catalog(out, env):
    """BENCHMARK.json must list exactly the metrics the binary prints."""
    if out is None:
        return 1
    listed = subprocess.run([str(out / "perfbench"), "--list-metrics"],
                            env=env, capture_output=True, text=True,
                            check=False)
    catalog = json.loads(listed.stdout)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in catalog[key]]
        have = [(m["name"], m["unit"]) for m in config[key]]
        if want != have:
            print(f"BENCHMARK.json {key} differs from the binary's catalog:",
                  sorted(set(want) ^ set(have)), file=sys.stderr)
            status = 1
    print("BENCHMARK.json matches the metric catalogs" if status == 0 else
          "BENCHMARK.json is out of date")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20060619)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    env = dict(os.environ)
    scratch = build_dir().parent
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # compilers and the benchmark stay in the checkout

    target = "perfbench_tests" if args.test else "perfbench"
    out = build([target], env)
    if out is None:
        return 1
    binary = out / target
    if not binary.is_file():
        print(f"perfbench: {binary} was not built", file=sys.stderr)
        return 1
    if args.test:
        if subprocess.run([str(binary)], env=env, check=False).returncode:
            return 1
        return check_catalog(build(["perfbench"], env), env)

    work = scratch / "out"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(work)]
    try:
        return subprocess.run(cmd, env=env, cwd=str(work), check=False,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
