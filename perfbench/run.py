#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload oneshot_3d --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (its own Cargo workspace, with path
dependencies on the repository's crates) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs it with the given
arguments, and forwards its standard output; the last line is the result
object. A traced run (`--trace 1`) also writes Chrome trace-event JSON,
which is loaded and checked here before the result is printed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check_trace(path):
    """The span file must load as Chrome trace-event JSON."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        raise ValueError("no trace events")
    for ev in events:
        if ev["ph"] != "X" or ev["dur"] < 0 or not isinstance(ev["ts"], (int, float)):
            raise ValueError(f"malformed event {ev}")
        for key in ("name", "cat", "pid", "tid", "args"):
            if key not in ev:
                raise ValueError(f"event without {key}: {ev}")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    run = subprocess.run([exe] + sys.argv[1:], env=env, stdout=subprocess.PIPE,
                         text=True, check=False)
    lines = run.stdout.rstrip("\n").split("\n")
    body, result = lines[:-1], lines[-1]
    for line in body:
        print(line)
    if run.returncode != 0:
        # A failed correctness check still ends with its result object.
        sys.stderr.write(f"perfbench: exited with {run.returncode}\n")
        if result.startswith('{"correct":'):
            print(result, flush=True)
        return run.returncode
    for line in body:
        if line.startswith("trace file: "):
            path = line[len("trace file: "):].split(" (")[0]
            try:
                check_trace(path)
            except (OSError, ValueError, KeyError, TypeError) as e:
                sys.stderr.write(f"perfbench: {path} is not Chrome trace-event JSON: {e}\n")
                return 1
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
