#!/usr/bin/env python3
"""Runs every ctest and CI invocation of mbctl with two binaries and diffs
exit codes, stdout and every file left behind.

usage: python3 tools/traffic.py OLD NEW CTEST_JSON CI_YML SRC OUT

OLD and NEW are the two mbctl binaries. CTEST_JSON is `ctest --show-only=json-v1` of the old build; SRC the old
checkout (examples/, bench/ and ci.yml come from it); OUT a scratch
directory, emptied first. A ctest case is run when its argv names the
mbctl binary anywhere (mbctl_expect cases run it through `cmake -P
tests/mbctl/expect.cmake`, which checks its exit code and stderr) or
names a file in the build directory. The CI steps are the `run:` blocks
of CI_JOBS, with build/tools/mbctl a wrapper that logs each invocation's
exit code and stdout. Prints the invocation counts and every difference,
or "no differences".
"""
import argparse
import filecmp
import json
import os
import shutil
import subprocess

import yaml

# Excluded: mb-profile documents, captured stderr (campaign steal counts)
# and GITHUB_ENV (the scaling step's shell-measured wall clock).
SKIP = {"fig4_profile.json", "campaign_cold.log", "campaign_warm.log",
        "advise_warm.log", "env"}
CI_JOBS = ("bench-smoke", "chaos-smoke", "fuzz-smoke", "trace-smoke",
           "scaling-gate")


def env_for(extra):
    env = {k: v for k, v in os.environ.items() if k != "MB_SEED"}
    env.update({k: str(v) for k, v in extra.items()})
    return env


def mbctl_tests(ctest_json):
    """The old build's mbctl path, its test directory and the ctest cases
    that run mbctl or read what it wrote, in declaration order."""
    tests = [t for t in json.load(open(ctest_json))["tests"]
             if t.get("command")]
    first = next(t for t in tests if t["command"][0].endswith("/mbctl"))
    old_bin = first["command"][0]
    bdir = next(p["value"] for p in first["properties"]
                if p["name"] == "WORKING_DIRECTORY")
    kept = [t for t in tests if old_bin in t["command"]
            or any(bdir in c for c in t["command"][1:])]
    return old_bin, bdir, kept


def run_side(side, binary, args, ctest):
    old_bin, bdir, tests = ctest
    root = f"{args.out}/{side}"
    tdir, cdir, log = f"{root}/tests", f"{root}/ci", f"{root}/ci_log"
    os.makedirs(tdir)
    results = []
    for t in tests:  # declaration order: fixture setups come first
        cmd = [binary if c == old_bin else c.replace(bdir, tdir)
               for c in t["command"]]
        env = dict(kv.split("=", 1) for p in t.get("properties", [])
                   if p["name"] == "ENVIRONMENT" for kv in p["value"])
        r = subprocess.run(cmd, cwd=tdir, env=env_for(env),
                           capture_output=True)
        # obs-report renders an mb-profile (wall times); paths name the side.
        stdout = b"" if "obs-report" in cmd else r.stdout.replace(
            tdir.encode(), b"DIR")
        results.append((t["name"], r.returncode, stdout))
    os.makedirs(f"{cdir}/build/tools")
    os.makedirs(log)
    for d in ("examples", "bench"):
        shutil.copytree(f"{args.src}/{d}", f"{cdir}/{d}")
    wrapper = f"{cdir}/build/tools/mbctl"
    with open(wrapper, "w") as f:  # records each CI invocation
        f.write(f"""#!/bin/bash
n=$(ls {log} | grep -c rc)
{binary} "$@" > {log}/$n.out
rc=$?
cat {log}/$n.out
if [ "$1" = obs-report ]; then : > {log}/$n.out; fi
echo "$rc $*" > {log}/$n.rc
exit $rc
""")
    os.chmod(wrapper, 0o755)
    jobs = yaml.safe_load(open(args.ci_yml))["jobs"]
    for job in CI_JOBS:
        for step in jobs[job]["steps"]:
            if "run" not in step or "chmod" in step["run"]:
                continue
            env = dict(jobs[job].get("env", {}), MB_SCALING_WALL_S="10",
                       GITHUB_ENV=f"{root}/env",
                       GITHUB_STEP_SUMMARY=f"{root}/summary")
            r = subprocess.run(["bash", "-eo", "pipefail", "-c",
                                step["run"]], cwd=cdir, env=env_for(env),
                               capture_output=True)
            results.append((f"{job}: {step['name']}", r.returncode, b""))
    return results


def compare_files(out):
    diffs = []
    rels = set()
    for side in ("old", "new"):
        for d, _dirs, names in os.walk(f"{out}/{side}"):
            rels.update(os.path.relpath(os.path.join(d, n), f"{out}/{side}")
                        for n in names)
    compared = 0
    for rel in sorted(rels):
        parts = rel.split("/")
        if parts[-1] in SKIP or parts[:2] in (["ci", "build"], ["ci", "bench"],
                                              ["ci", "examples"]):
            continue
        fa, fb = f"{out}/old/{rel}", f"{out}/new/{rel}"
        compared += 1
        if not (os.path.exists(fa) and os.path.exists(fb)):
            diffs.append(f"{rel}: only on one side")
        elif not filecmp.cmp(fa, fb, shallow=False):
            diffs.append(f"{rel}: differs")
    return compared, diffs


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    for name in ("old", "new", "ctest_json", "ci_yml", "src", "out"):
        parser.add_argument(name, metavar=name.upper())
    args = parser.parse_args()
    shutil.rmtree(args.out, ignore_errors=True)
    ctest = mbctl_tests(args.ctest_json)
    a = run_side("old", args.old, args, ctest)
    b = run_side("new", args.new, args, ctest)
    diffs = [f"{x[0]}: exit {x[1]} -> {y[1]}" for x, y in zip(a, b)
             if x[1] != y[1]]
    diffs += [f"{x[0]}: stdout differs" for x, y in zip(a, b) if x[2] != y[2]]
    compared, file_diffs = compare_files(args.out)
    diffs += file_diffs
    old_bin, _bdir, tests = ctest
    n_ctest = sum(1 for t in tests if old_bin in t["command"])
    n_ci = len([n for n in os.listdir(f"{args.out}/old/ci_log")
                if n.endswith("rc")])
    failed = [(s, x[0], x[1]) for s, r in (("old", a), ("new", b)) for x in r
              if ":" in x[0] and x[1] != 0]
    print(f"{n_ctest} ctest and {n_ci} CI mbctl invocations per binary, "
          f"{compared} files compared (per-invocation stdout/exit logs "
          f"included); CI steps failing: {failed or 'none'}")
    print("\n".join(diffs) if diffs else "no differences")


if __name__ == "__main__":
    main()
