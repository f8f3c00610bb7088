#!/usr/bin/env python3
"""Serving benchmark: builds the repository from source and runs one workload.

    python3 perfbench/run.py --workload cold_closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # every workload briefly + self-tests

Run it from the repository root. It configures perfbench/CMakeLists.txt into
.bench_build/perfbench (building the repository's libraries and fkd_server
from source), then runs fkd_perfbench, which trains a seeded snapshot,
launches a fresh fkd_server, drives the workload over the wire and checks
every answer. The last stdout line is the result object; the line before it
is the full report with sample counts and the hardware stamp.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
WORKLOADS = ["cold_open", "cold_closed", "hot_closed", "swap_mixed"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def revision():
    """Git commit when the checkout has one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs fkd_perfbench; returns (exit code, stdout lines)."""
    work = BUILD / "runs" / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    env.setdefault("FKD_LOG_LEVEL", "warning")
    proc = subprocess.run(
        [str(BUILD / "fkd_perfbench"), f"--workload={workload}",
         f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
         f"--server={BUILD / 'fkd' / 'tools' / 'fkd_server'}",
         f"--work-dir={work}", f"--build-type={BUILD_TYPE}",
         f"--commit={revision()}", *extra],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
        timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def smoke():
    """Each workload briefly, traced and untraced, plus the self-tests."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        log("smoke: BENCHMARK.json workloads differ from the benchmark's")
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_workload(workload, 1, 2, trace,
                                       ["--warmup=0.5", "--layer-budget=0.05"])
            if code != 0 or not lines:
                problems.append(f"{workload}/trace={trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            report = json.loads(lines[-2].split(":", 1)[1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload}/trace={trace}: metrics {sorted(got)}")
            if not result["correct"] or result["failed"] != 0 or \
                    report["fail_ratio"] != 0:
                problems.append(f"{workload}/trace={trace}: not clean: {report}")
            if trace and report["budget_violations"] != 0:
                problems.append(f"{workload}: wire budget does not close")
            log(f"smoke {workload} trace={trace}: {report['sent']} sent, "
                f"fail_ratio {report['fail_ratio']}")
    # A skewed reference must turn every answer into a caught mismatch.
    code, lines = run_workload("hot_closed", 1, 1, 0,
                               ["--warmup=0.2", "--perturb-ulps=1"])
    report = json.loads(lines[-2].split(":", 1)[1]) if lines else {}
    if code != 0 or json.loads(lines[-1])["correct"] or \
            report.get("wrong_answers") != report.get("answers_checked"):
        problems.append("a perturbed reference was not caught")
    scratch = BUILD / "runs" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    tests = subprocess.run([str(BUILD / "perfbench_test")],
                           stdout=sys.stderr, stderr=sys.stderr,
                           env=dict(os.environ, TMPDIR=str(scratch),
                                    FKD_LOG_LEVEL="warning"))
    if tests.returncode != 0:
        problems.append("perfbench_test failed")
    for p in problems:
        log("smoke FAIL: " + p)
    print(json.dumps({"smoke": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and the self-tests")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    targets = ["fkd_perfbench", "fkd_server"]
    if args.smoke:
        targets.append("perfbench_test")
    if not build(targets):
        log("perfbench: build failed")
        return 1
    if args.smoke:
        return smoke()
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
