#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is incremental.  The last line of
stdout is the benchmark's JSON result, printed only when its metric names
and units are exactly the ones BENCHMARK.json lists for the mode (end_to_end
for --trace 0, per_layer for --trace 1).  See perfbench/README.md.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no spiketune sources next to perfbench/; run from a full checkout", 2)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 2)
    return out


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv):
    if argv == ["--self-test"]:
        out = build("perfbench_tests")
        return subprocess.run([os.path.join(out, "perfbench_tests")],
                              cwd=ROOT).returncode
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    out = build("perfbench")
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit())
    r = subprocess.run(
        [os.path.join(out, "perfbench")] + argv +
        ["--scratch-root", os.path.join(out, "tmp"),
         "--trace-dir", os.path.join(out, "traces")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % r.returncode, r.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(traced)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics disagree with BENCHMARK.json: missing %s, extra %s, "
             "unit differs %s" % (missing, extra, wrong), 4)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
