"""The README's examples run as written: the library tour and the example
run config.  An API change that breaks them fails here."""

import re
import time
from pathlib import Path

from walkops.config import RunConfig

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
    assert RunConfig.from_text(cfg.to_text()) == cfg
    assert cfg.report.jobs == (
        "spectrum", "kernel", "radical", "metric", "boundary", "fock", "covariance",
    )
    parse = cfg.descriptor.parse
    assert cfg.walk.depth == 2000 and cfg.walk.memory_budget_mb == 512
    assert cfg.metric.pairs == ((parse("a"), parse("b")), (parse("a"), parse("A")))
    assert cfg.boundary.sequence == tuple(parse("a" * k) for k in range(6, 13))
    assert cfg.covariance.zeta == 1j and cfg.fock.y == parse("a")
    assert cfg.kernel.closed_form_compare is False and cfg.radical.tolerance == 0.0
