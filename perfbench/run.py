#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `perfbench/target`), then runs it in a clean environment: no
`SECDDR_*` variable leaks in, the worker pool is pinned to 2 threads, and
the trace cache, job log and result store live in a fresh scratch
directory under the build directory that is removed afterwards. The last
line of stdout is the benchmark's JSON result; it is checked against the
metric names declared in `BENCHMARK.json`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("missing --trace")
    trace = args[args.index("--trace") + 1] == "1"

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")

    env = {k: v for k, v in os.environ.items() if not k.startswith("SECDDR_")}
    scratch_root = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    env["SECDDR_THREADS"] = "2"
    env["SECDDR_TRACE_CACHE"] = os.path.join(scratch, "trace-cache")
    try:
        run = subprocess.run(
            [binary, *args, "--scratch", scratch],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        sys.stdout.write(run.stdout)
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
