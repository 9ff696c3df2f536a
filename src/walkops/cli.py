"""Batch front end: config-driven pipelines with deterministic outputs.

Subcommands: spectrum | kernel | radical | metric | boundary | fock |
covariance | report.  Every emitted file is JSON/CSV data (no rendering),
written atomically, with provenance fields (cache depth, rho_hat,
acceleration, window, config hash) on every artifact.  Identical configs
produce byte-identical outputs.

Exit codes: 0 success, 1 acceptance failure (a diagnostic verdict is red),
2 precondition failure, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fock as fk
from .config import RunConfig
from .errors import (
    BudgetExceededError,
    CoverageError,
    ElementParseError,
    PreconditionError,
    WalkopsError,
)
from .groups import FreeGroup
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

    def __init__(self, cfg: RunConfig, out_dir: Path, cache_dir: Path | None = None):
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._cache = None
        self._spectral = None
        self._alpha = None
        self._table = None
        self._window = None

    # -- shared pipeline pieces ------------------------------------------------

    def track_elements(self):
        """Union of elements every configured job may query, for deep caches
        that fall back to tracked retention."""
        cfg = self.cfg
        desc = cfg.descriptor
        inv = desc.inverse
        mul = desc.multiply
        needed = {desc.identity()}
        xball = desc.ball(cfg.getint("kernel", "x_radius"))
        yball = desc.ball(cfg.getint("kernel", "y_radius"))
        needed.update(xball)
        needed.update(yball)
        for x in xball:
            for y in yball:
                needed.add(mul(inv(x), y))
        probe = desc.ball(cfg.getint("radical", "probe_radius"))
        for y in desc.ball(cfg.getint("radical", "ball_radius")):
            for x in probe:
                needed.add(mul(inv(x), y))
        for r in ("radical", "metric", "boundary"):
            needed.update(desc.ball(cfg.getint(r, "ball_radius")))
        # window transitions and their kernel-entry denominators
        supp_radius = max(desc.word_length(g) for g in cfg.measure.support)
        fock_radius = (cfg.getint("fock", "x_radius")
                       + cfg.getint("fock", "z_radius") + supp_radius + 1)
        needed.update(desc.ball(fock_radius))
        for y in self.boundary_sequence(optional=True):
            needed.add(y)
            for x in desc.ball(cfg.getint("boundary", "probe_radius")):
                needed.add(mul(inv(x), y))
            for x in desc.ball(cfg.getint("boundary", "ball_radius")):
                needed.add(mul(inv(x), y))
        for y, z in cfg.element_pairs("metric", "pairs"):
            for x in desc.ball(cfg.getint("metric", "ball_radius")):
                needed.add(mul(inv(x), y))
                needed.add(mul(inv(x), z))
        return needed

    def cache(self):
        if self._cache is None:
            cfg = self.cfg
            engine = cfg.get("walk", "engine")
            name = (pick_engine(cfg.descriptor, cfg.measure)
                    if engine == "auto" else engine)
            support_cap = cfg.getint("walk", "support_cap")
            memory_budget_mb = cfg.getint("walk", "memory_budget_mb")
            # the file name carries every setting that changes the content,
            # so a cache truncated under one budget is never reused under another
            artifact = (
                self.cache_dir / (f"powers-{cfg.content_hash()}-{name}"
                                  f"-cap{support_cap}-mem{memory_budget_mb}.json")
                if self.cache_dir else None
            )
            if artifact is not None and artifact.exists():
                try:
                    self._cache = import_cache_json(
                        artifact.read_text(encoding="utf-8"))
                except ValueError as exc:  # damaged, or an older format
                    print(f"walkops: rebuilding unreadable cache artifact "
                          f"{artifact.name}: {exc}", file=sys.stderr)
            if self._cache is None:
                # a track set only matters for the engines with a memory
                # fallback; the generic engine is governed by support_cap
                track = (self.track_elements()
                         if name in ("dense", "radial-lattice") else None)
                self._cache = convolution_powers(
                    cfg.descriptor, cfg.measure,
                    cfg.getint("walk", "depth"),
                    engine=name,
                    support_cap=support_cap,
                    memory_budget_mb=memory_budget_mb,
                    track=track,
                )
                if artifact is not None:
                    try:
                        text = export_cache_json(self._cache)
                    except CoverageError:
                        pass  # tracked caches are not exportable
                    else:
                        write_text_atomic(str(artifact), text)
        return self._cache

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

    def fock_window(self) -> fk.FockWindow:
        """The [fock] window, built once and shared by fock and covariance."""
        if self._window is None:
            cfg = self.cfg
            self._window = fk.FockWindow(
                self.cache(),
                max_level=cfg.getint("fock", "max_level"),
                x_radius=cfg.getint("fock", "x_radius"),
                z_radius=cfg.getint("fock", "z_radius"),
                interior_margin=cfg.getint("fock", "interior_margin"),
            )
        return self._window

    def boundary_sequence(self, optional: bool = False) -> list:
        cfg = self.cfg
        desc = cfg.descriptor
        ray = cfg.get("boundary", "ray").strip()
        elems = cfg.get("boundary", "elements").strip()
        if ray:
            g = desc.parse(ray)
            k_min = cfg.getint("boundary", "k_min")
            k_max = cfg.getint("boundary", "k_max")
            out = []
            power = desc.identity()
            for k in range(1, k_max + 1):
                power = desc.multiply(power, g)
                if k >= k_min:
                    out.append(power)
            return out
        if elems:
            return [desc.parse(t) for t in elems.split(",") if t.strip()]
        if optional:
            return []
        raise PreconditionError("[boundary] needs 'ray' or 'elements'")

    def provenance(self, **extra) -> dict:
        cfg = self.cfg
        p = {
            "config_hash": cfg.content_hash(),
            "descriptor": cfg.descriptor.spec_string(),
            "M": cfg.getint("walk", "depth"),
            "engine": self.cache().engine_name,
            "seed": cfg.seed,
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
    cache = ws.cache()
    if not cache.complete:
        raise BudgetExceededError(cache.budget_note)
    report = validate_measure(ws.cfg.measure, ws.cfg.descriptor, cache=cache)
    est = ws.spectral()
    payload = est.as_dict()
    payload["alpha"] = ws.alpha()
    payload["measure_valid"] = report.valid
    payload["measure_symmetric"] = report.symmetric
    payload["provenance"] = ws.provenance(acceleration="richardson-harmonic")
    write_json(ws.path("spectrum.json"), payload)
    rows = [{"m": m, "ratio": r} for m, r in est.ratios]
    write_csv(ws.path("ratio_tail.csv"), rows, ["m", "ratio"])
    return 0


def cmd_kernel(ws: Workspace) -> int:
    cfg = ws.cfg
    desc = cfg.descriptor
    table = ws.table()
    compare = cfg.getbool("kernel", "closed_form_compare")
    if compare and not isinstance(desc, FreeGroup):
        raise PreconditionError("--closed-form-compare needs a free-group walk")
    rows = []
    for x in desc.ball(cfg.getint("kernel", "x_radius")):
        for y in desc.ball(cfg.getint("kernel", "y_radius")):
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
    tol = cfg.getfloat("radical", "tolerance")
    report = detect_radical(
        ws.table(),
        ball_radius=cfg.getint("radical", "ball_radius"),
        probe_radius=cfg.getint("radical", "probe_radius"),
        tol=tol if tol > 0 else None,
    )
    ball = desc.ball(cfg.getint("radical", "ball_radius"))
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
    pairs = cfg.element_pairs("metric", "pairs")
    if not pairs:
        raise PreconditionError("[metric] pairs is empty")
    rows = []
    for y, z in pairs:
        mv = ratio_metric(ws.table(), y, z, cfg.getint("metric", "ball_radius"))
        rows.append({
            "y": desc.format(y), "z": desc.format(z),
            "distance": mv.value, "tail_bound": mv.tail_bound,
            "uncertainty": mv.uncertainty,
        })
    write_json(ws.path("metric.json"), {
        "pairs": rows,
        "ball_radius": cfg.getint("metric", "ball_radius"),
        "provenance": ws.provenance(**ws.table().provenance()),
    })
    return 0


def cmd_boundary(ws: Workspace) -> int:
    cfg = ws.cfg
    seq = ws.boundary_sequence()
    report = boundary_trace(
        ws.table(), seq,
        probe_radius=cfg.getint("boundary", "probe_radius"),
        metric_ball_radius=cfg.getint("boundary", "ball_radius"),
        tol=cfg.getfloat("boundary", "tolerance"),
    )
    report.provenance.update(ws.provenance())
    write_json(ws.path("boundary.json"), report)
    rows = []
    for x_text, trace in sorted(report.extra["traces"].items()):
        for k, value in enumerate(trace):
            rows.append({"x": x_text, "step": k, "H": value})
    write_csv(ws.path("boundary_traces.csv"), rows, ["x", "step", "H"])
    return 0 if report.passed else 1


def _fock_xy(ws: Workspace):
    cfg = ws.cfg
    desc = cfg.descriptor
    x = cfg.element("fock", "x")
    y_text = cfg.get("fock", "y").strip()
    y = desc.parse(y_text) if y_text else desc.generators()[0]
    return x, y


def cmd_fock(ws: Workspace) -> int:
    cfg = ws.cfg
    desc = cfg.descriptor
    window = ws.fock_window()
    table = ws.table()
    tol = cfg.getfloat("tolerances", "exact")
    e = desc.identity()
    ball1 = desc.ball(1)
    g1 = ball1[1] if len(ball1) > 1 else e
    g2 = ball1[2] if len(ball1) > 2 else g1
    x, y = _fock_xy(ws)
    n = cfg.getint("fock", "n")
    reports = [
        fk.matrix_unit_defects(window, [(e, g1, g1, g2), (e, g1, g2, g2)], tol=tol),
        fk.unitary_and_commutation_defects(window, [(e, g1)], table, tol=tol),
        fk.generator_identity_defect(window, n, x, y, table, tol=tol),
        fk.q0_projection_check(window, e, tol=tol),
        fk.subproduct_coisometry_check(
            ws.cache(), 1, 1,
            min(2, cfg.getint("fock", "x_radius")),
            min(2, cfg.getint("fock", "z_radius")),
            tol=tol,
        ),
    ]
    hop = fk.build_Hop(window, e, x, y, table) if window.has(0, e, e) else None
    qn = None
    if hop is not None:
        qn = fk.quotient_norm_estimate(
            window, hop, z_samples=window.z_elems, seed=ws.cfg.seed
        )
    payload = {
        "window": window.spec_dict(),
        "checks": [r.as_dict() for r in reports],
        "quotient_norm": qn.as_dict() if qn else None,
        "provenance": ws.provenance(**table.provenance()),
    }
    write_json(ws.path("fock.json"), payload)
    # window + sample operator dumps for external verification
    write_json(ws.path("window.json"), window.export_payload())
    if hop is not None:
        write_json(ws.path("operator_H.json"), hop.export_payload())
    return 0 if all(r.passed for r in reports) else 1


def cmd_covariance(ws: Workspace) -> int:
    cfg = ws.cfg
    desc = cfg.descriptor
    window = ws.fock_window()
    g = cfg.element("covariance", "g")
    zeta = complex(cfg.get("covariance", "zeta").replace("i", "j"))
    n = cfg.getint("covariance", "n")
    x = desc.parse(cfg.get("covariance", "x"))
    y = desc.parse(cfg.get("covariance", "y"))
    report = fk.covariance_check(
        window, g, zeta, n, x, y, tol=cfg.getfloat("tolerances", "exact")
    )
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


def cmd_report(ws: Workspace) -> int:
    jobs = ws.cfg.get("report", "jobs").split()
    results = {}
    for job in jobs:
        if job not in _JOBS:
            raise PreconditionError(f"unknown job {job!r} in [report] jobs")
        results[job] = _JOBS[job](ws) == 0
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
    parser.add_argument("--max-depth", type=int, default=None,
                        help="override [walk] depth")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override [tolerances] exact")
    parser.add_argument("--closed-form-compare", action="store_true",
                        help="add closed-form comparison columns (free groups)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for power-iteration start vectors")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for reusable powers-cache artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.max_depth is not None:
            cfg.set("walk", "depth", args.max_depth)
        if args.tolerance is not None:
            cfg.set("tolerances", "exact", repr(args.tolerance))
        if args.closed_form_compare:
            cfg.set("kernel", "closed_form_compare", "true")
        cfg.seed = args.seed
        cfg.validate()
        out_dir = Path(args.out) if args.out else Path(cfg.get("output", "directory"))
        ws = Workspace(cfg, out_dir,
                       cache_dir=Path(args.cache_dir) if args.cache_dir else None)
        command = cmd_report if args.command == "report" else _JOBS[args.command]
        return command(ws)
    except BudgetExceededError as exc:
        print(f"walkops: budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, ElementParseError, CoverageError) as exc:
        print(f"walkops: precondition failure: {exc}", file=sys.stderr)
        return 2
    except WalkopsError as exc:
        print(f"walkops: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
