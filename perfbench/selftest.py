"""Self-test of the benchmark's checks: every corrupted run must fail.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs one short cycle with a tampered stored payload and
one with every expected count off by one; each must exit 1 with
``"correct": false``.  It then copies only BENCHMARK.json and perfbench/ into
a temporary directory under .perfbench/ and checks that a run there exits
non-zero without printing a result.  Takes about three minutes.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    failures = []
    for workload in ("certify", "search", "grow"):
        for tamper in ("payload", "count"):
            p = run(ROOT, "--workload", workload, "--tamper", tamper)
            last = p.stdout.strip().splitlines()[-1:] or ["{}"]
            correct = json.loads(last[0]).get("correct")
            ok = p.returncode == 1 and correct is False
            print(f"{workload} --tamper {tamper}: exit {p.returncode}, correct={correct}: {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append((workload, tamper))
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p = run(bare, "--workload", "certify")
    finally:
        shutil.rmtree(bare)
    ok = p.returncode != 0 and not p.stdout.strip()
    print(f"bare directory: exit {p.returncode}, stdout {len(p.stdout)} bytes: {'ok' if ok else 'FAIL'}")
    if not ok:
        failures.append(("bare", None))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
