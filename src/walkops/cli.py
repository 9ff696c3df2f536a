"""Batch front end: config-driven pipelines with deterministic outputs.

Subcommands: spectrum | kernel | radical | metric | boundary | fock |
covariance | report.  Every emitted file is JSON/CSV data (no rendering),
written atomically, with provenance fields (cache depth, rho_hat,
acceleration, window, config hash) on every artifact.  Identical configs
produce byte-identical outputs.

Exit codes: 0 success, 1 acceptance failure (a diagnostic verdict is red),
2 precondition failure, 3 budget exhaustion (the powers cache stopped at
its support cap; no job writes then).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig
from .errors import (
    BudgetExceededError,
    CoverageError,
    ElementParseError,
    PreconditionError,
    WalkopsError,
)
from .measures import validate_measure
from .powers import (
    convolution_powers,
    export_cache_json,
    import_cache_json,
    pick_engine,
)
from .ratiolimit import (
    KernelTable,
    boundary_trace,
    closed_form_H_free_isotropic,
    detect_radical,
    ratio_metric,
)
from .reports import write_csv, write_json, write_text_atomic
from .spectral import local_limit_exponent, spectral_radius


class Workspace:
    """Memoizes the cache / spectral estimate / kernel table / Fock window
    for one run."""

    def __init__(self, cfg: RunConfig, out_dir, cache_dir=None, seed: int = 7):
        self.cfg = cfg
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._cache = None
        self._spectral = None
        self._alpha = None
        self._table = None
        self._window = None

    # -- shared pipeline pieces ------------------------------------------------

    def cache(self):
        if self._cache is None:
            cfg = self.cfg
            name = pick_engine(cfg.descriptor, cfg.measure)
            support_cap = cfg.walk.support_cap
            # the file name carries every setting that changes the content,
            # so a cache truncated under one cap is never reused under another
            artifact = (
                self.cache_dir / (f"powers-{cfg.content_hash()}-{name}"
                                  f"-cap{support_cap}.json")
                if self.cache_dir else None
            )
            if artifact is not None and artifact.exists():
                try:
                    cache = import_cache_json(artifact.read_text(encoding="utf-8"))
                except ValueError as exc:  # damaged, or an older format
                    print(f"walkops: rebuilding unreadable cache artifact "
                          f"{artifact.name}: {exc}", file=sys.stderr)
                else:
                    mismatch = self._cache_mismatch(cache, name)
                    if mismatch:
                        print(f"walkops: rebuilding cache artifact {artifact.name}, "
                              f"which holds another walk: {mismatch}", file=sys.stderr)
                    else:
                        self._cache = cache
            if self._cache is None:
                self._cache = convolution_powers(
                    cfg.descriptor, cfg.measure, cfg.walk.depth,
                    engine=name,
                    support_cap=support_cap,
                )
                if artifact is not None:
                    write_text_atomic(str(artifact), export_cache_json(self._cache))
        # after the artifact write, so --cache-dir keeps a truncated cache for
        # reuse; no job reads a cache its budget stopped, so none writes
        if not self._cache.complete:
            raise BudgetExceededError(self._cache.budget_note)
        return self._cache

    def _cache_mismatch(self, cache, engine: str) -> str:
        """How an imported cache differs from what this config would build
        (descriptor, engine, measure, depth); "" when it does not.  A cache
        stopped by its budget holds fewer levels than the configured depth."""
        cfg = self.cfg
        spec = cfg.descriptor.spec_string()
        depth = cfg.walk.depth
        if cache.descriptor.spec_string() != spec:
            return f"descriptor {cache.descriptor.spec_string()}, not {spec}"
        if cache.engine_name != engine:
            return f"engine {cache.engine_name}, not {engine}"
        if (cache.mu.support != cfg.measure.support
                or cache.mu.log_scale != cfg.measure.log_scale):
            return "another measure"
        if not (cache.depth == depth or (not cache.complete and cache.depth < depth)):
            return f"depth {cache.depth}, not {depth}"
        return ""

    def spectral(self):
        if self._spectral is None:
            self._spectral = spectral_radius(self.cache())
            self._alpha = local_limit_exponent(self.cache(), self._spectral)
        return self._spectral

    def alpha(self):
        self.spectral()
        return self._alpha

    def table(self):
        if self._table is None:
            self._table = KernelTable(self.cache(), rho_hat=self.spectral().rho_hat)
        return self._table

    def fock_window(self):
        """The [fock] window, built once and shared by fock and covariance."""
        if self._window is None:
            # as in the two jobs below: only runs that build a window load it
            from . import fock as fk

            f = self.cfg.fock
            self._window = fk.FockWindow(
                self.cache(), max_level=f.max_level, x_radius=f.x_radius,
                z_radius=f.z_radius, interior_margin=f.interior_margin,
            )
        return self._window

    def provenance(self, **extra) -> dict:
        cfg = self.cfg
        p = {
            "config_hash": cfg.content_hash(),
            "descriptor": cfg.descriptor.spec_string(),
            "M": cfg.walk.depth,
            "engine": self.cache().engine_name,
            "seed": self.seed,
        }
        if self._spectral is not None:
            p["rho_hat"] = self._spectral.rho_hat
        p.update(extra)
        return p

    def path(self, name: str) -> str:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return str(self.out_dir / name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(ws: Workspace) -> int:
    report = validate_measure(ws.cache())
    est = ws.spectral()
    payload = est.as_dict()
    payload["alpha"] = ws.alpha()
    payload["measure_valid"] = report.valid
    payload["measure_symmetric"] = report.symmetric
    payload["provenance"] = ws.provenance(acceleration="richardson-harmonic")
    write_json(ws.path("spectrum.json"), payload)
    ms, rs = est.ratios
    write_csv(ws.path("ratio_tail.csv"),
              ({"m": m, "ratio": r} for m, r in zip(ms.tolist(), rs.tolist())), ["m", "ratio"])
    return 0


def cmd_kernel(ws: Workspace) -> int:
    cfg = ws.cfg
    desc = cfg.descriptor
    table = ws.table()
    compare = cfg.kernel.closed_form_compare
    rows = []
    for x in desc.ball(cfg.kernel.x_radius):
        for y in desc.ball(cfg.kernel.y_radius):
            entry = table.get(x, y)
            row = {
                "x": desc.format(x), "y": desc.format(y),
                "estimate": entry.estimate,
                "lower": entry.lo, "upper": entry.hi,
                "method": "aitken-log-ladder" if entry.accelerated else "raw-tail",
            }
            if compare:
                exact = closed_form_H_free_isotropic(desc.rank, x, y)
                row["closed_form"] = exact
                row["rel_error"] = abs(entry.estimate - exact) / exact
            rows.append(row)
    cols = ["x", "y", "estimate", "lower", "upper", "method"]
    if compare:
        cols += ["closed_form", "rel_error"]
    write_csv(ws.path("kernel.csv"), rows, cols)
    write_json(ws.path("kernel.json"), {
        "entries": rows,
        "provenance": ws.provenance(**table.provenance()),
    })
    return 0


def cmd_radical(ws: Workspace) -> int:
    cfg = ws.cfg
    desc = cfg.descriptor
    report = detect_radical(
        ws.table(),
        ball_radius=cfg.radical.ball_radius,
        probe_radius=cfg.radical.probe_radius,
        tol=cfg.radical.tolerance or None,  # 0: the automatic tolerance
    )
    ball = desc.ball(cfg.radical.ball_radius)
    payload = {
        "ball_radius": report.ball_radius,
        "probe_radius": report.probe_radius,
        "flagged": [desc.format(g) for g in report.flagged],
        "flagged_count": len(report.flagged),
        "ball_size": len(ball),
        "flags_entire_ball": report.flags_all(ball),
        "flags_only_identity": report.flags_only_identity(desc.identity()),
        "deviations": {desc.format(g): v for g, v in report.deviations.items()},
        "tolerances": {desc.format(g): v for g, v in report.tol_used.items()},
        "product_residuals": {
            f"{desc.format(y)},{desc.format(z)}": v
            for (y, z), v in report.product_residuals.items()
        },
        "inverse_residuals": {
            desc.format(y): v for y, v in report.inverse_residuals.items()
        },
        "provenance": ws.provenance(**ws.table().provenance()),
    }
    write_json(ws.path("radical.json"), payload)
    return 0


def cmd_metric(ws: Workspace) -> int:
    cfg = ws.cfg
    desc = cfg.descriptor
    rows = []
    for y, z in cfg.metric.pairs:
        mv = ratio_metric(ws.table(), y, z, cfg.metric.ball_radius)
        rows.append({
            "y": desc.format(y), "z": desc.format(z),
            "distance": mv.value, "tail_bound": mv.tail_bound,
            "uncertainty": mv.uncertainty,
        })
    write_json(ws.path("metric.json"), {
        "pairs": rows,
        "ball_radius": cfg.metric.ball_radius,
        "provenance": ws.provenance(**ws.table().provenance()),
    })
    return 0


def cmd_boundary(ws: Workspace) -> int:
    b = ws.cfg.boundary
    report = boundary_trace(ws.table(), b.sequence, probe_radius=b.probe_radius,
                            metric_ball_radius=b.ball_radius, tol=b.tolerance)
    report.provenance.update(ws.provenance())
    write_json(ws.path("boundary.json"), report)
    rows = []
    for x_text, trace in sorted(report.extra["traces"].items()):
        for k, value in enumerate(trace):
            rows.append({"x": x_text, "step": k, "H": value})
    write_csv(ws.path("boundary_traces.csv"), rows, ["x", "step", "H"])
    return 0 if report.passed else 1


def cmd_fock(ws: Workspace) -> int:
    from . import fock as fk

    cfg = ws.cfg
    desc = cfg.descriptor
    window = ws.fock_window()
    table = ws.table()
    tol = cfg.tolerances.exact
    e = desc.identity()
    ball1 = desc.ball(1)
    g1 = ball1[1] if len(ball1) > 1 else e
    g2 = ball1[2] if len(ball1) > 2 else g1
    x, y = cfg.fock.x, cfg.fock.y
    reports = [
        fk.matrix_unit_defects(window, [(e, g1, g1, g2), (e, g1, g2, g2)], tol=tol),
        fk.unitary_and_commutation_defects(window, [(e, g1)], table, tol=tol),
        fk.generator_identity_defect(window, cfg.fock.n, x, y, table, tol=tol),
        fk.q0_projection_check(window, e, tol=tol),
        fk.subproduct_coisometry_check(
            ws.cache(), 1, 1,
            min(2, cfg.fock.x_radius),
            min(2, cfg.fock.z_radius),
            tol=tol,
        ),
    ]
    # e^(0)_{e,e} is in every window (P^(0)_{e,e} = 1), so H^(e) is never empty
    hop = fk.build_Hop(window, e, x, y, table)
    qn = fk.quotient_norm_estimate(window, hop)
    payload = {
        "window": window.spec_dict(),
        "checks": [r.as_dict() for r in reports],
        "quotient_norm": qn.as_dict(),
        "provenance": ws.provenance(**table.provenance()),
    }
    write_json(ws.path("fock.json"), payload)
    # window + sample operator dumps for external verification
    write_json(ws.path("window.json"), window.export_payload())
    write_json(ws.path("operator_H.json"), fk.operator_payload(
        window, hop, "H^(z0)", {"z0": e, "x": x, "y": y}))
    return 0 if all(r.passed for r in reports) else 1


def cmd_covariance(ws: Workspace) -> int:
    from . import fock as fk

    c = ws.cfg.covariance
    report = fk.covariance_check(ws.fock_window(), c.g, c.zeta, c.n, c.x, c.y,
                                 tol=ws.cfg.tolerances.exact)
    report.provenance.update(ws.provenance())
    write_json(ws.path("covariance.json"), report)
    return 0 if report.passed else 1


_JOBS = {
    "spectrum": cmd_spectrum,
    "kernel": cmd_kernel,
    "radical": cmd_radical,
    "metric": cmd_metric,
    "boundary": cmd_boundary,
    "fock": cmd_fock,
    "covariance": cmd_covariance,
}


def _closed_form_holds(cfg: RunConfig) -> bool:
    """Whether ``closed_form_H_free_isotropic`` is this walk's kernel: an
    isotropic free-group walk (the ``radial`` engine) on ``ball(1)``."""
    desc, mu = cfg.descriptor, cfg.measure
    return (pick_engine(desc, mu) == "radial"
            and set(mu.support) <= set(desc.ball(1)))


def _check_jobs(cfg: RunConfig, jobs) -> None:
    """Reject unknown job names and unset keys a listed job needs."""
    cov = cfg.covariance
    needs = [  # (job, the key it needs, whether the config gives it)
        ("kernel", "[kernel] closed_form_compare on an isotropic nearest-neighbour "
         "free-group walk only",
         not cfg.kernel.closed_form_compare or _closed_form_holds(cfg)),
        ("metric", "[metric] pairs", cfg.metric.pairs),
        ("boundary", "[boundary] ray or elements", cfg.boundary.sequence),
        ("fock", "[fock] x", cfg.fock.x is not None),
        *[("covariance", f"[covariance] {key}", value is not None)
          for key, value in (("g", cov.g), ("x", cov.x), ("y", cov.y))],
    ]
    for job in jobs:
        if job not in _JOBS:
            raise PreconditionError(f"[report] jobs: unknown job {job!r}")
    for job, key, given in needs:
        if job in jobs and not given:
            raise PreconditionError(f"the {job} job needs {key}")


def cmd_report(ws: Workspace) -> int:
    results = {job: _JOBS[job](ws) == 0 for job in ws.cfg.report.jobs}
    summary = {
        "jobs": results,
        "all_passed": all(results.values()),
        "provenance": ws.provenance(),
    }
    write_json(ws.path("report.json"), summary)
    return 0 if summary["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkops",
        description=(
            "Random-walk boundary and operator-window workbench: "
            "spectral radius, ratio-limit kernels, radical detection, "
            "boundary metrics and Fock-window diagnostics."
        ),
        epilog=(
            "exit codes: 0 success, 1 acceptance failure, "
            "2 precondition failure, 3 budget exhaustion"
        ),
    )
    parser.add_argument("command", choices=sorted(_JOBS) + ["report"])
    parser.add_argument("--config", required=True, help="run-config file (INI)")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--max-depth", default=None, help="override [walk] depth")
    parser.add_argument("--tolerance", default=None, help="override [tolerances] exact")
    parser.add_argument("--closed-form-compare", action="store_const", const="true",
                        help="add closed-form comparison columns (isotropic "
                             "nearest-neighbour free-group walks)")
    parser.add_argument("--seed", type=int, default=7,
                        help="label for the run, recorded as provenance seed; "
                             "no computation reads it")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for reusable powers-cache artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the overrides enter as text, so the config's own checks apply to them
    overrides = {}
    for section, key, text in (("walk", "depth", args.max_depth),
                               ("tolerances", "exact", args.tolerance),
                               ("kernel", "closed_form_compare", args.closed_form_compare)):
        if text is not None:
            overrides[section] = {key: text}
    try:
        cfg = RunConfig.from_file(args.config, overrides)
        report = args.command == "report"
        _check_jobs(cfg, cfg.report.jobs if report else [args.command])
        ws = Workspace(cfg, args.out or cfg.output.directory, args.cache_dir, args.seed)
        return (cmd_report if report else _JOBS[args.command])(ws)
    except BudgetExceededError as exc:
        print(f"walkops: budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, ElementParseError, CoverageError, OSError) as exc:
        # an output or cache path that cannot be written (say, a regular
        # file where a directory belongs) is a precondition, not a red verdict
        print(f"walkops: precondition failure: {exc}", file=sys.stderr)
        return 2
    except WalkopsError as exc:
        print(f"walkops: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
