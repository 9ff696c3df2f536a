"""The README's examples run as written: the library tour, the example
run config and the Fock window's basis rebuild.  An API change that
breaks them fails here."""

import re
import time
from pathlib import Path

from walkops.config import RunConfig
from walkops.fock import FockWindow
from walkops.reports import write_json

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang: str, after: str) -> str:
    """The first fenced ``lang`` block after the heading line ``after``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(after)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no {lang} block after {after!r}"
    return match.group(1)


def test_library_tour_runs():
    code = _block("python", "## Library tour")
    scope: dict = {}
    start = time.perf_counter()
    exec(compile(code, "README.md (Library tour)", "exec"), scope)
    elapsed = time.perf_counter() - start
    print(f"README library tour: {elapsed:.2f} s")
    assert scope["rep"].passed
    assert scope["entry"].lo <= scope["entry"].estimate <= scope["entry"].hi


def test_example_config_validates():
    cfg = RunConfig.from_text(_block("ini", "Example config:"))
    assert cfg.report.jobs == (
        "spectrum", "kernel", "radical", "metric", "boundary", "fock", "covariance",
    )
    parse = cfg.descriptor.parse
    assert cfg.walk.depth == 2000 and cfg.walk.support_cap == 2_000_000
    assert cfg.metric.pairs == ((parse("a"), parse("b")), (parse("a"), parse("A")))
    assert cfg.boundary.sequence == tuple(parse("a" * k) for k in range(6, 13))
    assert cfg.covariance.zeta == 1j and cfg.fock.y == parse("a")
    assert cfg.kernel.closed_form_compare is False and cfg.radical.tolerance == 0.0


def test_window_basis_rebuild_runs(lazy_z_cache, tmp_path, monkeypatch):
    """The README's rebuild, run on a small window's window.json, gives the
    window's basis in basis order."""
    win = FockWindow(lazy_z_cache, max_level=8, x_radius=1, z_radius=2,
                     interior_margin=2)
    write_json(str(tmp_path / "window.json"), win.export_payload())
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    code = _block("python", "Rebuilding the basis from `window.json`:")
    exec(compile(code, "README.md (basis rebuild)", "exec"), scope)
    fmt = win.descriptor.format
    assert scope["basis"] == [
        (m, fmt(win.x_elems[i]), fmt(win.z_elems[j]))
        for m, i, j in zip(win.level.tolist(), win.row.tolist(), win.fiber.tolist())
    ]
    assert len(scope["basis"]) == win.size > len(win.x_elems)
