"""One workload in one fresh process; started by run.py, never by hand.

    python3 child.py --workload NAME --seed N --out DIR --spawn-ns T
                     [--mode full|setup|trace|probe] [--small]

``--spawn-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process (CLOCK_MONOTONIC is shared by all processes).
The result goes to ``DIR/result.json``:

* ``first_powers_ns``: when the first ``convolution_powers`` call began,
  which ends set-up;
* ``checks``: ``[name, passed]`` per output check;
* in ``trace`` mode, ``layers``: the per-layer numbers from the spans,
  and ``bench_end_ns``: when the workload and its checks ended;
* in ``probe`` mode, ``probes``: the isolated layer probes.

``setup`` mode stops at the first ``convolution_powers`` call, so it
measures set-up alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from time import monotonic_ns

T_MAIN = monotonic_ns()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402  (benchmark-local module)


class SetupDone(Exception):
    """Raised at the first powers call in ``setup`` mode."""


def hook_first_powers(stop: bool) -> dict:
    """Record when ``convolution_powers`` is first called, at every binding."""
    import walkops.powers as powers

    orig = powers.convolution_powers
    seen: dict = {}

    @functools.wraps(orig)
    def hooked(*args, **kwargs):
        if "ns" not in seen:
            seen["ns"] = monotonic_ns()
            if stop:
                raise SetupDone
        return orig(*args, **kwargs)

    tr._rebind({id(orig): hooked})
    return seen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup", "trace", "probe"),
                    default="full")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    tracer = None
    if args.mode == "trace":
        tracer = tr.Tracer(f"{args.workload}-{args.seed}")
        tracer.close(tracer.open("startup", "startup", args.spawn_ns), T_MAIN)
        rec = tracer.open("import", "import")
    import walkops
    if tracer is not None:
        tracer.close(rec)
    seen = hook_first_powers(stop=args.mode == "setup")
    if tracer is not None:
        # wrapping imports the layer modules a workload may not use
        rec = tracer.open("install", "tracer")
        tracer.install()
        tracer.close(rec)

    result = {"kernel_backend": walkops.kernel_backend, "checks": []}
    if args.mode == "probe":
        import probes

        result["probes"], result["checks"] = probes.run_all(args.seed, args.small)
    else:
        import workloads

        run = workloads.WORKLOADS[args.workload]
        root = tracer.open("bench", "bench") if tracer is not None else None
        try:
            result["checks"], result["info"] = run(args.seed, out, args.small)
        except SetupDone:
            pass
        if tracer is not None:
            tracer.close(root)
            result["bench_end_ns"] = root[3]
            result["layers"] = tr.summarize(tracer)
            tracer.dump(str(out / "trace.json"))
    result["first_powers_ns"] = seen.get("ns")
    result["end_ns"] = monotonic_ns()
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
