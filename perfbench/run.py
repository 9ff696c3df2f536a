#!/usr/bin/env python3
"""walkops benchmark: end-to-end workloads, output checks, per-layer trace.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The program under test is ``src/walkops``
of the same tree, used from source (``PYTHONPATH=src``); nothing is
installed and the compiled kernel is used only if it was built in place.

Every workload runs as a fresh child process, one at a time, with its own
temporary output directory under ``.perfbench/`` (never the CLI default
``out/``).  The load is a closed loop: the next child starts when the last
one has exited.

``--trace 0`` (end to end): a warm-up child that stops at set-up, five
more set-up children, then full workload children until ``--seconds`` is
spent (at least two).  Prints the medians of

* ``wall_s``: child start to exit, checks included;
* ``cpu_s``: the child's user + system time;
* ``setup_s``: child start to its first ``convolution_powers`` call
  (interpreter start, ``import walkops``, config or measure parsing);
* ``peak_rss_mib``: the child's own peak resident set;

and ``error_rate`` (failed output checks over checks attempted) from the
``attempted``/``failed`` counts.

``--trace 1`` (per layer): one untraced child, one traced child that
records spans around every call into the nine layer modules, and one
child that runs the isolated layer probes (among them the criterion-5
F2 x Z kernel table).  Prints the per-layer metrics,
the tracing overhead (traced minus untraced ``wall_s``) and the share of
the traced ``wall_s`` that named layer spans account for.  The spans are
kept in ``.perfbench/traces/``.

Without ``--workload`` every workload runs in turn.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from time import monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = WORK / "report-digests.json"
TRACES = WORK / "traces"  # the spans of the last traced run per workload and seed

WORKLOADS = ("report-f2", "lamplighter-roundtrip")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_RUNS = 5
# On the 2-vCPU VM this was tuned on, the speed of both vCPUs drifts by up
# to 1.8x over seconds to minutes, so a run never rests on a single child.
MIN_FULL_RUNS = 2
RUN_LIMIT_S = 170  # every invocation must end within 180 s

sys.path.insert(0, str(HERE))
import tracer as tr  # noqa: E402  (benchmark-local module)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_mib", "MiB"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "B" if name.endswith("bytes_written") else "count"


# -- children ---------------------------------------------------------------------

class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, small: bool, deadline_ns: int) -> dict:
    """Start child.py, wait for it, return its timings and result."""
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=WORK))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    try:
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            spawn_ns = monotonic_ns()
            cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                   "--seed", str(seed), "--out", str(out), "--mode", mode,
                   "--spawn-ns", str(spawn_ns)] + (["--small"] if small else [])
            pid = os.posix_spawn(cmd[0], cmd, env, file_actions=[
                (os.POSIX_SPAWN_DUP2, so.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, se.fileno(), 2),
            ])
            status, usage = _wait(pid, max(1.0, (deadline_ns - spawn_ns) / 1e9))
            end_ns = monotonic_ns()
        code = os.waitstatus_to_exitcode(status)
        result_path = out / "result.json"
        if code != 0 or not result_path.exists():
            tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
            raise ChildFailed(f"{workload} ({mode}) exited with {code}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if mode == "trace":
            TRACES.mkdir(exist_ok=True)
            os.replace(out / "trace.json", TRACES / f"{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    first = result.get("first_powers_ns")
    return {
        "end_ns": end_ns,
        "wall_s": (end_ns - spawn_ns) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is KiB on Linux
        "setup_s": (first - spawn_ns) / 1e9 if first else None,
        "result": result,
    }


def _wait(pid: int, timeout_s: float):
    """wait4 on one child; SIGKILL it if it outlives ``timeout_s``."""
    def kill(signum, frame):
        os.kill(pid, signal.SIGKILL)

    old = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # e.g. KeyboardInterrupt: leave no child behind
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return status, usage


# -- checks -----------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name: str, passed: bool):
        self.attempted += 1
        if not passed:
            self.failed.append(name)

    def add_result(self, workload: str, result: dict):
        for name, passed in result["checks"]:
            self.add(f"{workload}:{name}", passed)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "walkops").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(checks: Checks, seed: int, small: bool, digest: str):
    """report-f2 output trees must be byte-identical for one seed and one
    source tree; the first digest seen is kept in .perfbench/ for later runs."""
    key = f"{source_hash()}:{seed}:{int(small)}"
    known = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if key in known:
        checks.add("report-f2:digest_stable", known[key] == digest)
        return
    known[key] = digest
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS)


def record(checks: Checks, workload: str, seed: int, small: bool, child: dict):
    checks.add_result(workload, child["result"])
    digest = child["result"].get("info", {}).get("digest")
    if digest is not None:
        check_digest(checks, seed, small, digest)


# -- one workload -------------------------------------------------------------------

def measure_end_to_end(workload, seed, seconds, small, checks, deadline_ns):
    start = monotonic_ns()
    run_child(workload, seed, "setup", small, deadline_ns)  # warm-up, discarded
    setups = [run_child(workload, seed, "setup", small, deadline_ns)["setup_s"]
              for _ in range(SETUP_RUNS)]
    budget_end = start + int(seconds * 1e9)
    fulls = []
    while True:
        child = run_child(workload, seed, "full", small, deadline_ns)
        record(checks, workload, seed, small, child)
        fulls.append(child)
        setups.append(child["setup_s"])
        guess = int(statistics.median(c["wall_s"] for c in fulls) * 1e9)
        now = monotonic_ns()
        if now + 2 * guess > deadline_ns:
            break
        if len(fulls) >= MIN_FULL_RUNS and now + guess > budget_end:
            break
    print(f"{workload} wall_s per child: "
          + " ".join(f"{c['wall_s']:.3f}" for c in fulls))
    metrics = {name: statistics.median(c[name] for c in fulls)
               for name in ("wall_s", "cpu_s", "peak_rss_mib")}
    metrics["setup_s"] = statistics.median(setups)
    samples = {"wall_s": len(fulls), "cpu_s": len(fulls),
               "peak_rss_mib": len(fulls), "setup_s": len(setups)}
    return {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, samples, fulls[0]["result"]


def measure_layers(workload, seed, small, checks, deadline_ns):
    run_child(workload, seed, "setup", small, deadline_ns)  # warm-up, discarded
    plain = run_child(workload, seed, "full", small, deadline_ns)
    record(checks, workload, seed, small, plain)
    traced = run_child(workload, seed, "trace", small, deadline_ns)
    record(checks, workload, seed, small, traced)
    probe = run_child(workload, seed, "probe", small, deadline_ns)
    checks.add_result("probe", probe["result"])

    result = traced["result"]
    layers = dict(result["layers"])
    wall = traced["wall_s"]
    # the tracer's own work is not walkops: wrapping before the workload,
    # summarizing and writing the spans after it; then the interpreter
    # exits and frees the heap
    bookkeeping = (layers["self_s.tracer"]
                   + (result["end_ns"] - result["bench_end_ns"]) / 1e9)
    layers["self_s.exit"] = (traced["end_ns"] - result["end_ns"]) / 1e9
    named = sum(layers[f"self_s.{layer}"]
                for layer in tr.LAYERS + ("startup", "import", "exit"))
    layers["trace.wall_s"] = wall
    layers["trace.bookkeeping_s"] = bookkeeping
    layers["trace.overhead_s"] = wall - plain["wall_s"]
    layers["trace.attributed_share"] = named / (wall - bookkeeping)
    layers.update(probe["result"]["probes"])
    metrics = {k: (v, unit_of(k)) for k, v in sorted(layers.items())}
    return metrics, dict.fromkeys(metrics, 1), traced["result"]


# -- output -----------------------------------------------------------------------

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def fingerprint(seed: int, result: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "kernel_backend": result["kernel_backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="time spent on full workload children (end to end)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs, for the self-test only")
    args = ap.parse_args(argv)

    if not (SRC / "walkops" / "__init__.py").is_file():
        print(f"perfbench: no walkops sources at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    attempted, failed = 0, 0
    out_metrics = {}
    try:
        for name in names:
            checks = Checks()
            deadline_ns = monotonic_ns() + int(RUN_LIMIT_S * 1e9)
            if args.trace:
                metrics, samples, result = measure_layers(
                    name, args.seed, args.small, checks, deadline_ns)
            else:
                metrics, samples, result = measure_end_to_end(
                    name, args.seed, args.seconds, args.small, checks, deadline_ns)
            print(f"{name} fingerprint {json.dumps(fingerprint(args.seed, result))}")
            print(f"{name} info {json.dumps(result.get('info'))}")
            for key, (value, unit) in metrics.items():
                print(f"{name:22s} {key:44s} {value:14.6g} {unit:6s} n={samples[key]}")
                out_metrics[key if args.workload else f"{name}/{key}"] = {
                    "value": value, "unit": unit}
            rate = len(checks.failed) / checks.attempted
            print(f"{name:22s} {'error_rate':44s} {rate:14.6g} {'ratio':6s} "
                  f"n={checks.attempted} failed: {', '.join(checks.failed[:10]) or '-'}")
            attempted += checks.attempted
            failed += len(checks.failed)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
