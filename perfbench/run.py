#!/usr/bin/env python3
"""Benchmark driver for ccd: builds the library, ccdd and the workload
runner from this checkout's source in Release, runs one workload, and
prints its metrics. The last line of standard output is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload design_full|ingest_stream
                           --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest     # the benchmark's own tests

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics
of a traced run, including the tracing overhead. Build output and ccdd
logs stay under .bench_build/. Exit codes: 0 correct, 1 an output check or
ledger reconciliation failed, 2 build or run error, 3 the library is not a
Release build.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
RUNS = ROOT / ".bench_build" / "runs"
TMP = ROOT / ".bench_build" / "tmp"
WORKLOADS = ("design_full", "ingest_stream")
# Every run ends well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import analysis  # noqa: E402


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no ccd source tree at %s; nothing to benchmark" % ROOT)
    # Compiler temporaries stay inside the checkout too.
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over the files a build reads, so a result names the code it
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout when it is a git repository; git does not look
    above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def run_workload(args, workdir):
    """Run the workload runner in its own process group, so a run cut short
    takes its ccdd children down with it."""
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", "record.json"]
    proc = subprocess.Popen(command, cwd=workdir, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))


def print_details(record, problems, provenance):
    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        record["workload"], record["seed"], record["seconds"],
        1 if record["trace"] else 0))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    measurements = [("untraced", record["measure"])]
    if record["trace"]:
        measurements.append(("traced", record["traced"]))
    for label, m in measurements:
        metrics, info = analysis.end_to_end(record, m)
        print("%s: %s" % (label, json.dumps(info, sort_keys=True)))
        for name, unit in analysis.END_TO_END:
            print("  %-16s %14.6f %s" % (name, metrics[name], unit))
        for index, e in enumerate(m["episodes"]):
            print("  episode %d: setup %.3f s (CPU %.3f s), timed %.3f s "
                  "(CPU %.3f s), %d ops, %d failed, peak RSS %d KiB, "
                  "ledger %s" % (
                      index, e["setup_s"], e["setup_cpu_s"], e["timed_s"],
                      e["timed_cpu_s"], e["timed_attempted"],
                      e["timed_failed"], e["peak_rss_kb"],
                      json.dumps(e["ledger"], sort_keys=True)))
    if record["trace"]:
        _, layers = analysis.per_layer(record)
        print("spans (count, total ms, self ms):")
        for name, (count, total, own) in sorted(layers.items()):
            print("  %-28s %8d %12.3f %12.3f" % (name, count, total / 1e6,
                                                  own / 1e6))
        print("counts: " + json.dumps(record["counts"], sort_keys=True))
    for check in record["checks"]:
        print("check %-45s %s %s" % (check["name"],
                                     "ok" if check["ok"] else "FAILED",
                                     check["detail"]))
    for problem in problems:
        print("problem: " + problem)


def report(record, provenance):
    """Print the details and, last, the result line; returns the exit
    code: 0 when the outputs are correct, 1 when they are not."""
    result, problems = analysis.result(record)
    print_details(record, problems, provenance)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        suite = unittest.defaultTestLoader.discover(str(HERE / "tests"))
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        sys.exit(0 if ok else 1)
    if args.workload is None:
        parser.error("--workload is required")

    build()
    workdir = RUNS / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        code = run_workload(args, workdir)
        if code not in (0, 1):
            fail("%s exited with code %d" % (args.workload, code), code)
        record = json.loads((workdir / "record.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expectations = json.loads((HERE / "expectations.json").read_text())
    provenance = {
        "build_type": record["build_type"],
        "compiler": record["compiler"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": record["nproc"],
        "seed": record["seed"],
        "held_out_seed": expectations["held_out_seed"],
        "checkpoint_fs": record["checkpoint_fs"],
    }
    sys.exit(report(record, provenance))


if __name__ == "__main__":
    main()
