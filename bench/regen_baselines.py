#!/usr/bin/env python3
"""Regenerates the committed bench baselines.

    python3 bench/regen_baselines.py [--build=build]

Run from the repository root with a configured Release build. For each
baseline it runs the bench binary with --report (a relative path, so the
recorded flag value stays stable), tags the report compsyn-bench-v2, and
stamps a host block into its meta: nproc, compiler, build type and git sha
("-dirty" when the tree has uncommitted changes). The
table2_proc2 run is then appended to BENCH_trajectory.jsonl through
bench_diff --trajectory, diffed against the baseline it replaces.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

SCHEMA = "compsyn-bench-v2"  # obs/bench_schema.hpp kBenchSchemaV2

# (bench binary, baseline file, extra flags, append to the trajectory)
BASELINES = [
    ("table2_proc2", "BENCH_table2.json", [], True),
    ("table2_npn", "BENCH_table2_npn.json", [], False),
    ("table_atpg", "BENCH_atpg.json", [], False),
    ("serve_replay", "BENCH_serve.json", ["--lanes=1,2,4"], False),
]


def cmake_cache(build, key):
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def host_block(build):
    compiler = cmake_cache(build, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    sha = subprocess.run(["git", "describe", "--always", "--dirty"],
                         capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "compiler": version[0] if version else compiler,
        "build_type": cmake_cache(build, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build")
    args = ap.parse_args()
    host = host_block(args.build)
    tools = os.path.join(args.build, "src", "tools")
    for binary, out, flags, trajectory in BASELINES:
        with tempfile.TemporaryDirectory() as tmp:
            before = os.path.join(tmp, "before.json")
            if os.path.exists(out):
                shutil.copy(out, before)
            subprocess.run([os.path.join(args.build, "bench", binary),
                            "--report=" + out] + flags, check=True,
                           stdout=subprocess.DEVNULL)
            with open(out) as f:
                doc = {"schema": SCHEMA, **json.load(f)}
            doc.setdefault("meta", {})["host"] = host
            with open(out, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            if trajectory and os.path.exists(before):
                # Exit 1 only flags a timing regression; the line is
                # appended either way.
                subprocess.run([os.path.join(tools, "bench_diff"),
                                "--trajectory=BENCH_trajectory.jsonl",
                                before, out], stdout=subprocess.DEVNULL)
        print(f"regenerated {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
