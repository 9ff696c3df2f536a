#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (about two minutes).

    python3 perfbench/selftest.py

Checks that

* every workload passes its output checks at reduced size, in both modes;
* every metric named in BENCHMARK.json is emitted with the unit given there;
* the benchmark runs without the compiled kernel (``WALKOPS_PURE_PYTHON=1``);
* a run leaves the source tree as it found it (the work directory
  ``.perfbench/`` and ``__pycache__/`` are ignored by git);
* in a directory holding only BENCHMARK.json and the benchmark, it exits
  with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IGNORED = {".perfbench", "__pycache__", ".git", ".pytest_cache"}


def snapshot(root: Path) -> dict:
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in IGNORED]
        for name in filenames:
            path = Path(dirpath, name)
            st = path.stat()
            files[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return files


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, WALKOPS_PURE_PYTHON="1")
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--small", "--seconds", "1", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    before = snapshot(ROOT)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        for workload in (w["name"] for w in spec["workloads"]):
            proc = bench(ROOT, "--workload", workload, "--seed", "3", "--trace", trace)
            if proc.returncode != 0:
                problems.append(f"{workload} --trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: checks failed\n"
                                f"{lines[-2]}")
            if '"kernel_backend": "python"' not in proc.stdout:
                problems.append(f"{workload}: compiled kernel in use")
            got = result["metrics"]
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                if name not in got:
                    problems.append(f"{workload} --trace {trace}: {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{workload}: {name} in {got[name]['unit']}, "
                                    f"BENCHMARK.json says {unit}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload} --trace {trace}: not in BENCHMARK.json: "
                                f"{sorted(extra)}")
    after = snapshot(ROOT)
    if before != after:
        changed = sorted(set(before.items()) ^ set(after.items()))
        problems.append(f"tree changed by a run: {changed[:10]}")

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", spec["workloads"][0]["name"])
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
