#!/usr/bin/env python3
"""Builds and runs the JUNO end-to-end benchmark.

Run from the root of the repository:

  python3 benchsuite/run.py --workload NAME --seed S --seconds W --trace 0|1
      One run of one workload. The last line of standard output is the
      run's JSON result: {"correct", "attempted", "failed", "metrics"}.
  python3 benchsuite/run.py [--seed S] [--seconds W] [--repeat N]
                            [--json OUT] [--trace-dir DIR]
      Every workload, each run in its own process, N times (seeds S,
      S+1, ...), interleaved across workloads. Prints each end-to-end
      metric as `workload metric value unit`, with median and quartiles
      when N > 1. --trace-dir adds one traced run per workload, which
      writes DIR/trace_<workload>.json and prints the per-layer metrics
      and the tracing overhead. --json writes every run's full result.
  python3 benchsuite/run.py --smoke
      Every workload with tiny data and 2 s windows, every check armed.
  python3 benchsuite/run.py --selftest
      Checks the benchmark's own statistics helpers and compare.py.

The benchmark binary is built with CMake into .bench_build/ from the
sources of this checkout; scratch files go to .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source directory clean
from compare import quartiles  # noqa: E402

SUITE_DIR = Path(__file__).resolve().parent
WORKLOADS = ["juno-batch", "juno-serve-ip", "serve-small", "live-mixed"]
BUILD_DIR = Path(".bench_build")
OUT_DIR = Path(".bench_out")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds bench_suite; returns its path."""
    if not (SUITE_DIR.parent / "src").is_dir():
        sys.exit("run.py: the library sources (src/) are not next to "
                 "benchsuite/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    cmds = [["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmds.insert(0, ["cmake", "-S", str(SUITE_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    return BUILD_DIR / "bench_suite"


def run_one(binary, workload, seed, seconds, trace, trace_dir, smoke):
    """One bench_suite process; returns (exit code, stdout, result dict)."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result_{workload}_{seed}_{int(trace)}.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", str(trace_dir or OUT_DIR), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    result = json.loads(out.read_text()) if out.exists() else None
    return proc.returncode, proc.stdout, result


def run_all(args, binary):
    seconds = 2 if args.smoke else args.seconds
    runs, failed = [], False
    for rep in range(args.repeat):
        for workload in WORKLOADS:
            seed = args.seed + rep
            code, stdout, result = run_one(binary, workload, seed, seconds,
                                           False, args.trace_dir, args.smoke)
            for line in stdout.splitlines()[:-1]:
                print(line)
            if code != 0 or result is None:
                failed = True
                log(f"run.py: {workload} seed {seed} failed (exit {code})")
                continue
            runs.append(result)

    traced = []
    if args.trace_dir:
        for workload in WORKLOADS:
            code, stdout, result = run_one(binary, workload, args.seed,
                                           seconds, True, args.trace_dir,
                                           args.smoke)
            for line in stdout.splitlines()[:-1]:
                print(line)
            if code != 0 or result is None:
                failed = True
                log(f"run.py: traced {workload} failed (exit {code})")
                continue
            traced.append(result)
            base = next((r for r in runs if r["workload"] == workload and
                         r["seed"] == args.seed), None)
            if base is not None:
                # Open loops offer a fixed rate, so their overhead shows
                # in latency rather than in qps.
                for metric in ("qps", "p50_ms"):
                    plain = base["end_to_end"][metric]["value"]
                    with_trace = result["end_to_end"][metric]["value"]
                    ratio = (plain / with_trace if metric == "qps"
                             else with_trace / plain)
                    print(f"{workload} trace_overhead_{metric} "
                          f"{ratio - 1:.4f} fraction")

    if args.repeat > 1:
        print("\nworkload metric median q1 q3 unit (over "
              f"{args.repeat} seeds)")
        for workload in WORKLOADS:
            mine = [r for r in runs if r["workload"] == workload]
            if not mine:
                continue
            for name, m in mine[0]["end_to_end"].items():
                vals = [r["end_to_end"][name]["value"] for r in mine]
                q1, med, q3 = quartiles(vals)
                print(f"{workload} {name} {med:.6g} {q1:.6g} {q3:.6g} "
                      f"{m['unit']}")

    if args.json:
        Path(args.json).write_text(json.dumps(
            {"runs": runs, "traced": traced}, indent=1) + "\n")
        print(f"results written to {args.json}")
    return 1 if failed else 0


def selftest(binary):
    code = subprocess.run([str(binary), "--selftest"]).returncode
    code |= subprocess.run([sys.executable, str(SUITE_DIR / "compare.py"),
                            "--selftest"]).returncode
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-dir")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--json")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be in [1, 120]")

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload:
        # One run: its output, last line included, is the result.
        try:
            code, stdout, _ = run_one(binary, args.workload, args.seed,
                                      args.seconds, args.trace == 1,
                                      args.trace_dir, args.smoke)
        except subprocess.TimeoutExpired:
            log(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
            return 1
        sys.stdout.write(stdout)
        return code
    if args.trace == 1:
        ap.error("--trace 1 needs --workload; use --trace-dir for all")
    return run_all(args, binary)


if __name__ == "__main__":
    sys.exit(main())
