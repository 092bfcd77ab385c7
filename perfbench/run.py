#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pingpong-small --seed 1 --seconds 10 --trace 0

It builds perfbench/bench.exe from source with dune (inside the
checkout, shared dune cache off), runs it, and passes its output
through.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  The
exit code is 0 only when the build succeeded, every output check passed
and the metric names match BENCHMARK.json.  Span files and the
Runtime_events ring live under .perfbench-out/ in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["fabric-bulk", "pingpong-small", "storage-mix"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    # Without the opam environment on PATH, opam exec supplies it.
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH and opam is not installed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a checkout: %s is missing" % need)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)

    build = subprocess.run(
        dune() + ["build", "--root", root, "./perfbench/bench.exe"],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_dir,
    ]
    try:
        run = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("the run took longer than %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.decode(errors="replace").rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    for line in body:
        print(line)
    if run.returncode != 0:
        if last.startswith("{"):
            print(last)
        fail("bench.exe exited with %d" % run.returncode)
    try:
        result = json.loads(last)
    except ValueError:
        fail("the last line is not JSON: %r" % last)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics do not match BENCHMARK.json %s: %s" % (section, sorted(set(got) ^ set(expected))))
    print(last)


if __name__ == "__main__":
    main()
