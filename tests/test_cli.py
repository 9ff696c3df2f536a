"""CLI: determinism, exit codes, artifacts, config round-trips, caching."""

import base64
import configparser
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkops
from walkops.cli import main
from walkops.config import RunConfig
from walkops.errors import PreconditionError
from walkops import powers
from walkops.powers import ARTIFACT_VERSION, _pack, _unpack, convolution_powers

DATA = Path(__file__).parent / "data"

FREE2_CFG = """
[group]
family = free(2)

[measure]
inline =
    e 1/5
    a 1/5
    A 1/5
    b 1/5
    B 1/5

[walk]
depth = 300

[kernel]
x_radius = 1
y_radius = 1

[radical]
ball_radius = 1
probe_radius = 1

[metric]
pairs = a b; a A
ball_radius = 2

[boundary]
ray = a
k_min = 4
k_max = 8
probe_radius = 1
ball_radius = 2
tolerance = 0.02

[fock]
max_level = 10
x_radius = 1
z_radius = 1
interior_margin = 3
n = 1
x = e
y = a

[covariance]
g = a
zeta = i
n = 1
x = e
y = a

[report]
jobs = spectrum kernel radical metric boundary fock covariance
"""

PERIODIC_CFG = """
[group]
family = lattice(1)

[measure]
inline =
    (1) 1/2
    (-1) 1/2

[walk]
depth = 64

[kernel]
x_radius = 1
y_radius = 1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FREE2_CFG, encoding="utf-8")
    return path


def _tree(root: Path):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_report_runs_all_jobs_and_is_deterministic(cfg_file, tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["report", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main(["report", "--config", str(cfg_file), "--out", str(out2)]) == 0
    t1, t2 = _tree(out1), _tree(out2)
    assert t1.keys() == t2.keys()
    assert t1 == t2  # byte-identical outputs across runs
    summary = json.loads((out1 / "report.json").read_text())
    assert summary["all_passed"]
    assert set(summary["jobs"]) == {
        "spectrum", "kernel", "radical", "metric", "boundary", "fock",
        "covariance",
    }


# sha256 of the ``report`` tree for FREE2_CFG (each file's relative path
# and bytes, in path order, as perfbench's ``tree_digest`` hashes them),
# computed when a ``radial`` cache still kept every level in full
REPORT_SHA256 = "08ee8f8a53c11bb5a334287d9447392bfb3a752d17dc8203562b45a9027e4044"


def _tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for rel, data in _tree(root).items():
        h.update(Path(rel).as_posix().encode() + b"\0")
        h.update(data)
        h.update(b"\0")
    return h.hexdigest()


def test_report_tree_is_pinned(cfg_file, tmp_path):
    """The report's bytes are pinned across source trees, not only between
    two runs of one: a change to how the engines store levels must leave
    every output byte as it was."""
    out = tmp_path / "o"
    assert main(["report", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert _tree_sha256(out) == REPORT_SHA256


def test_report_builds_one_fock_window(cfg_file, tmp_path, monkeypatch):
    """fock and covariance share the run's one window."""
    import walkops.fock as fk

    built = []
    init = fk.FockWindow.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fk.FockWindow, "__init__", counting_init)
    assert main(["report", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 1


def test_fock_artifacts_name_elements_and_positions(cfg_file, tmp_path):
    """operator_H.json writes its parameters as element text and its
    entries as positions of window.json's basis, and fock.json always
    holds the quotient norm, one (m, norm) pair per rung."""
    out = tmp_path / "o"
    assert main(["fock", "--config", str(cfg_file), "--out", str(out)]) == 0
    window = json.loads((out / "window.json").read_text())
    op = json.loads((out / "operator_H.json").read_text())
    q = json.loads((out / "fock.json").read_text())["quotient_norm"]
    assert op["params"] == {"z0": "e", "x": "e", "y": "a"}
    size = sum(r.count("1") for rows in window["present"] for r in rows)
    assert size == window["window"]["basis_size"] > 0
    assert len(op["in"]) == len(op["out"]) == len(op["value"]) > 0
    assert all(0 <= p < size for p in op["in"] + op["out"])
    assert set(q) == {"estimate", "ladder", "per_fiber", "stabilized"}
    rungs = list(q["per_fiber"].values())
    assert all(len(rung) == 2 for fiber in rungs for rung in fiber)
    assert q["estimate"] == max(fiber[-1][1] for fiber in rungs)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """No scipy module loads: not on importing the CLI or walkops.fock,
    and not in a report that runs the fock and covariance jobs."""
    scipy_loaded = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(walkops.__file__).parents[1])}
    for module in ("walkops.cli", "walkops.fock"):
        code = f"import sys, {module}; sys.exit({scipy_loaded})"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0, module
    cfg = tmp_path / "fock.ini"
    cfg.write_text(FREE2_CFG.replace(
        "jobs = spectrum kernel radical metric boundary fock covariance",
        "jobs = fock covariance"), encoding="utf-8")
    argv = ["report", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = ("import sys; from walkops.cli import main; "
            f"rc = main({argv!r}); sys.exit(rc if rc else 3 if {scipy_loaded} else 0)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["jobs"]) == {"fock", "covariance"}


def test_spectrum_artifact_schema(cfg_file, tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", "--config", str(cfg_file), "--out", str(out)]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    for key in ("rho_hat", "spread", "m_range", "method", "alpha", "provenance"):
        assert key in doc
    ratio_csv = (out / "ratio_tail.csv").read_text().splitlines()
    assert ratio_csv[0] == "m,ratio"
    assert len(ratio_csv) > 10


def test_kernel_closed_form_compare(cfg_file, tmp_path):
    out = tmp_path / "kc"
    code = main(["kernel", "--config", str(cfg_file), "--out", str(out),
                 "--closed-form-compare"])
    assert code == 0
    header = (out / "kernel.csv").read_text().splitlines()[0]
    assert "closed_form" in header and "rel_error" in header
    doc = json.loads((out / "kernel.json").read_text())
    assert all(row["rel_error"] <= 0.01 for row in doc["entries"])


def test_radical_artifact(cfg_file, tmp_path):
    out = tmp_path / "rad"
    assert main(["radical", "--config", str(cfg_file), "--out", str(out)]) == 0
    doc = json.loads((out / "radical.json").read_text())
    assert doc["flagged"] == ["e"]
    assert doc["flags_only_identity"] is True


def test_aperiodicity_precondition_exit_2(tmp_path):
    cfg = tmp_path / "periodic.ini"
    cfg.write_text(PERIODIC_CFG, encoding="utf-8")
    out = tmp_path / "p"
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 2
    # spectrum still works through the even subsequence
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0


def test_singular_gauge_exit_2(tmp_path, capsys):
    # zeta = 0 makes U_zeta singular: a precondition failure, no artifact
    cfg = tmp_path / "zeta0.ini"
    cfg.write_text(FREE2_CFG.replace("zeta = i", "zeta = 0"), encoding="utf-8")
    out = tmp_path / "z"
    assert main(["covariance", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("walkops: precondition failure: ")
    assert not (out / "covariance.json").exists()


def test_budget_exit_3(tmp_path):
    cfg_text = """
[group]
family = lamplighter(1)

[measure]
inline =
    (0,{}) 1/4
    (1,{}) 1/4
    (-1,{}) 1/4
    (0,{0}) 1/4

[walk]
depth = 40
support_cap = 100
"""
    cfg = tmp_path / "lamp.ini"
    cfg.write_text(cfg_text, encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "l")]) == 3


def test_red_report_exit_1(cfg_file, tmp_path):
    # an unreachable boundary tolerance forces a red verdict
    text = cfg_file.read_text().replace("tolerance = 0.02", "tolerance = 1e-9")
    bad = tmp_path / "bad.ini"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "red"
    assert main(["boundary", "--config", str(bad), "--out", str(out)]) == 1
    doc = json.loads((out / "boundary.json").read_text())
    assert doc["verdict"] == "not Cauchy"


AMENABLE_Z2_CFG = """
[group]
family = lattice(2)

[measure]
inline =
    (0,0) 1/2
    (1,0) 1/8
    (-1,0) 1/8
    (0,1) 1/8
    (0,-1) 1/8

[walk]
depth = 128

[radical]
ball_radius = 2
probe_radius = 1
"""


def test_radical_amenable_walk_flags_whole_ball(tmp_path):
    cfg = tmp_path / "z2.ini"
    cfg.write_text(AMENABLE_Z2_CFG, encoding="utf-8")
    out = tmp_path / "z2out"
    assert main(["radical", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "radical.json").read_text())
    assert doc["flags_entire_ball"] is True
    assert doc["flagged_count"] == doc["ball_size"] == 13


def test_metric_artifact(cfg_file, tmp_path):
    out = tmp_path / "met"
    assert main(["metric", "--config", str(cfg_file), "--out", str(out)]) == 0
    doc = json.loads((out / "metric.json").read_text())
    rows = {(r["y"], r["z"]): r for r in doc["pairs"]}
    assert rows[("a", "b")]["distance"] > 0.0
    assert all(r["tail_bound"] == 2.0 ** (-17) for r in doc["pairs"])


def test_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[group]\nfamily = free(2)\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2


def test_max_depth_override(cfg_file, tmp_path):
    out = tmp_path / "ov"
    assert main(["spectrum", "--config", str(cfg_file), "--out", str(out),
                 "--max-depth", "64"]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["provenance"]["M"] == 64


def test_cache_dir_reuse(cfg_file, tmp_path):
    cache_dir = tmp_path / "cache"
    out = tmp_path / "c1"
    assert main(["spectrum", "--config", str(cfg_file), "--out", str(out),
                 "--cache-dir", str(cache_dir), "--max-depth", "48"]) == 0
    artifacts = list(cache_dir.glob("powers-*.json"))
    assert len(artifacts) == 1
    out2 = tmp_path / "c2"
    assert main(["spectrum", "--config", str(cfg_file), "--out", str(out2),
                 "--cache-dir", str(cache_dir), "--max-depth", "48"]) == 0
    assert (out / "spectrum.json").read_bytes() == (out2 / "spectrum.json").read_bytes()


PRODUCT_CFG = """
[group]
family = product(free(2),lattice(1))

[measure]
inline =
    (e|(0)) 0.35
    (a|(0)) 0.1
    (A|(0)) 0.1
    (b|(0)) 0.1
    (B|(0)) 0.1
    (e|(1)) 0.125
    (e|(-1)) 0.125

[walk]
depth = 200

[kernel]
x_radius = 1
y_radius = 1

[radical]
ball_radius = 1
probe_radius = 1

[metric]
pairs = (a|(0)) (e|(1))
ball_radius = 1

[boundary]
ray = (a|(0))
k_min = 4
k_max = 7
probe_radius = 1
ball_radius = 1
tolerance = 0.05

[fock]
max_level = 8
x_radius = 1
z_radius = 1
interior_margin = 2
n = 1
x = (e|(0))
y = (a|(0))

[covariance]
g = (a|(0))
zeta = -1
n = 1
x = (e|(0))
y = (a|(0))

[report]
jobs = spectrum kernel radical metric boundary fock covariance
"""


def test_product_cache_full_pipeline(tmp_path, capsys):
    """A deep Cartesian-product run supports every command, including the
    Fock window.  Every array cache, a product's two factors and a
    lattice(2) cache included, keeps a box and is exportable: each run
    writes its recipe artifact (under 4 KiB) to ``--cache-dir`` and prints
    nothing, and a second run reads it (the file is not replaced) and
    writes the same output tree."""
    z2 = tmp_path / "z2.ini"
    z2.write_text(AMENABLE_Z2_CFG, encoding="utf-8")
    cfg = tmp_path / "deep.ini"
    cfg.write_text(PRODUCT_CFG, encoding="utf-8")
    for config, job in ((cfg, "report"), (z2, "radical")):
        cache_dir = tmp_path / f"{job}-cache"
        outs = [tmp_path / f"{job}1", tmp_path / f"{job}2"]
        inodes = []
        for out in outs:
            assert main([job, "--config", str(config), "--out", str(out),
                         "--cache-dir", str(cache_dir)]) == 0
            assert capsys.readouterr().err == ""
            (artifact,) = cache_dir.glob("powers-*.json")
            inodes.append(artifact.stat().st_ino)
        assert inodes[0] == inodes[1]
        assert json.loads(artifact.read_text())["payload"] == {}
        assert artifact.stat().st_size < 4096
        assert _tree(outs[0]) == _tree(outs[1])
    summary = json.loads((tmp_path / "report1" / "report.json").read_text())
    assert summary["all_passed"]
    rad = json.loads((tmp_path / "report1" / "radical.json").read_text())
    assert "(e|(1))" in rad["flagged"] and "(a|(0))" not in rad["flagged"]
    assert json.loads((tmp_path / "radical1" / "radical.json").read_text())["flags_entire_ball"]


def test_track_set_read_only_over_budget(tmp_path, capsys):
    """The CLI passes no track set: a lattice(1) run, the criterion-5
    product report and a lattice(2) run, whose caches keep the default
    box, all exit 0 with nothing on stderr."""
    lazy = tmp_path / "lazy.ini"
    lazy.write_text(LAZY_Z_CFG, encoding="utf-8")
    assert main(["spectrum", "--config", str(lazy), "--out", str(tmp_path / "z")]) == 0
    product = tmp_path / "product.ini"
    product.write_text(PRODUCT_CFG, encoding="utf-8")
    assert main(["report", "--config", str(product), "--out", str(tmp_path / "p")]) == 0

    z2 = tmp_path / "z2.ini"
    z2.write_text(AMENABLE_Z2_CFG, encoding="utf-8")
    assert main(["radical", "--config", str(z2), "--out", str(tmp_path / "z2out")]) == 0
    assert capsys.readouterr().err == ""


def test_config_engine_key_rejected(tmp_path, capsys):
    """The engine is picked from the group and the measure: a config that
    sets ``[walk] engine`` fails validation, naming the key, and the CLI
    exits 2."""
    text = LAZY_Z_CFG + "engine = generic\n"
    with pytest.raises(PreconditionError, match=r"\[walk\] engine"):
        RunConfig.from_text(text)
    cfg = tmp_path / "engine.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "[walk] engine" in capsys.readouterr().err


def test_config_misspelled_key_rejected(tmp_path, capsys):
    """A key its section does not take is an error naming it, not a
    silently kept default (here ``support_cap`` would stay 2000000)."""
    cfg = tmp_path / "typo.ini"
    cfg.write_text(LAZY_Z_CFG + "suport_cap = 10\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "[walk] suport_cap" in capsys.readouterr().err


def test_config_memory_budget_key_rejected(tmp_path, capsys):
    """Every array cache keeps a box, whatever the walk, so no config takes
    a memory budget: a free-group or a lattice(2) config that sets
    ``[walk] memory_budget_mb`` exits 2 with one line naming the key, and
    writes nothing."""
    for name, text in (("free2", FREE2_CFG), ("z2", AMENABLE_Z2_CFG)):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(_set_key(text, "walk", "memory_budget_mb", "512"), encoding="utf-8")
        out = tmp_path / f"{name}-out"
        assert main(["report", "--config", str(cfg), "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["walkops: precondition failure: "
                       "[walk] memory_budget_mb is not a config key"], name
        assert not out.exists() and not (tmp_path / "cache").exists()


def test_config_unknown_section_rejected(tmp_path, capsys):
    """A section the config does not know is an error naming it, not
    silently dropped."""
    cfg = tmp_path / "typo.ini"
    cfg.write_text(LAZY_Z_CFG + "\n[kernal]\nx_radius = 1\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "[kernal]" in capsys.readouterr().err


TRACKED_ROWS = {
    "fock_covariance": ("""
[fock]
x = (0,0)
y = (6,0)
n = 6

[covariance]
g = (1,0)
x = (0,0)
y = (7,0)
n = 7

[report]
jobs = spectrum kernel fock covariance
""", ("fock.json", "covariance.json")),
    "boundary_metric": ("""
[boundary]
elements = (9,0), (10,0), (11,0)

[metric]
pairs = (0,9) (1,9); (-9,0) (-9,1)

[report]
jobs = spectrum kernel metric boundary
""", ("boundary.json", "metric.json")),
}


@pytest.mark.parametrize("rows", sorted(TRACKED_ROWS))
def test_tracked_cache_covers_fock_and_covariance_rows(tmp_path, capsys, monkeypatch,
                                                      rows):
    """The [fock] and [covariance] rows, and the [boundary] elements and
    [metric] pairs, of these lattice(2) reports lie outside every ball the
    other jobs read, and the boundary elements outside the default box.
    The cache keeps a box of each level and replays the rest: with no room
    to widen the box (``_BLOCK_BUDGET`` 0) each such column replays on its
    own, and the run still gives the exit code and the output tree of the
    run whose replays widen the box."""
    sections, written = TRACKED_ROWS[rows]
    cfg = tmp_path / "z2.ini"
    cfg.write_text(AMENABLE_Z2_CFG.replace("depth = 128", "depth = 60") + sections,
                   encoding="utf-8")
    codes, trees = [], []
    for budget in (0, powers._BLOCK_BUDGET):
        monkeypatch.setattr(powers, "_BLOCK_BUDGET", budget)
        out = tmp_path / f"out{budget}"
        codes.append(main(["report", "--config", str(cfg), "--out", str(out)]))
        trees.append(_tree(out))
    assert capsys.readouterr().err == ""
    assert codes == [0, 0]
    assert trees[0] == trees[1]
    assert all(name in trees[0] for name in written)


@pytest.mark.parametrize("edit, named", [
    (("k_min = 4\nk_max = 8", "k_min = 12\nk_max = 6"), "[boundary] k_min"),
    (("k_max = 8\nprobe_radius = 1", "k_max = 8\nprobe_radius = -1"),
     "[boundary] probe_radius"),
    (("[measure]\n", "[measure]\nfile = mu.txt\n"), "[measure] takes 'inline' or 'file'"),
    (("ray = a\n", "ray = a\nelements = b, bb\n"), "[boundary] takes 'ray' or 'elements'"),
], ids=["k_min_above_k_max", "negative_probe_radius", "measure_inline_and_file",
        "ray_and_elements"])
def test_config_degenerate_or_ambiguous_rejected(tmp_path, capsys, edit, named):
    """A boundary run on an empty ray (k_min > k_max) or an empty probe
    ball (negative radius), or a config naming two sources for one input
    (measure inline and file, boundary ray and elements), exits 2 naming
    the key instead of crashing, passing vacuously or dropping one."""
    old, new = edit
    assert old in FREE2_CFG
    cfg = tmp_path / "bad.ini"
    cfg.write_text(FREE2_CFG.replace(old, new, 1), encoding="utf-8")
    (tmp_path / "mu.txt").write_text("a 1/2\nA 1/2\n", encoding="utf-8")
    assert main(["boundary", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("walkops: precondition failure:") and named in err


def _set_key(text: str, section: str, key: str, value: str) -> str:
    """The config ``text`` with ``[section] key = value``."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# (section, key, bad value); every key but [output] directory, whose value
# is any path text
BAD_VALUES = [
    ("group", "family", "free(0)"), ("group", "family", "free(2"),
    ("measure", "inline", "a 1/2\nq 1/2"), ("measure", "inline", "a -1/2\nA 3/2"),
    ("walk", "depth", "abc"), ("walk", "depth", "0"), ("walk", "depth", "1_000"),
    ("walk", "support_cap", "-5"),
    ("walk", "memory_budget_mb", "-1"),  # a former key: any value is rejected
    ("kernel", "x_radius", "abc"), ("kernel", "y_radius", "-1"),
    ("kernel", "closed_form_compare", "maybe"),
    ("radical", "ball_radius", "-2"), ("radical", "probe_radius", "1.5"),
    ("radical", "tolerance", "x"), ("radical", "tolerance", "-0.1"),
    ("metric", "ball_radius", "two"), ("metric", "pairs", "a b; A"),
    ("metric", "pairs", "a q"), ("metric", "pairs", ""),
    ("boundary", "ray", "q"), ("boundary", "ray", ""), ("boundary", "ray", "a b"),
    ("boundary", "elements", "b, (1)"),
    ("boundary", "k_min", "0"), ("boundary", "k_max", "x"), ("boundary", "k_max", "3"),
    ("boundary", "probe_radius", "-1"), ("boundary", "ball_radius", "x"),
    ("boundary", "tolerance", "nan"),
    ("fock", "max_level", "x"), ("fock", "max_level", "2"), ("fock", "x_radius", "-1"),
    ("fock", "z_radius", "z"), ("fock", "interior_margin", "0"), ("fock", "n", "-1"),
    ("fock", "x", "q"), ("fock", "y", "q"), ("fock", "y", "a b"),
    ("covariance", "g", "q"), ("covariance", "g", ""), ("covariance", "zeta", "abc"),
    ("covariance", "zeta", "0.5"), ("covariance", "n", "x"), ("covariance", "x", "(0)"),
    ("covariance", "x", ""), ("covariance", "y", "c"), ("covariance", "y", ""),
    ("report", "jobs", "spectrum kernal"),
    ("tolerances", "exact", "0"), ("tolerances", "exact", "x"),
]


@pytest.mark.parametrize("section, key, value", BAD_VALUES,
                         ids=[f"{s}.{k}={v!r}" for s, k, v in BAD_VALUES])
def test_bad_config_value_exits_2_before_any_output(tmp_path, capsys, section, key, value):
    """A bad value for any key (not a number, out of range, not a boolean,
    not an element, an unknown job, or empty where a listed job needs it)
    exits 2 with one line naming the section and key, before the first job
    writes: the whole config is checked when it is read."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(_set_key(FREE2_CFG, section, key, value), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("walkops: precondition failure: ")
    assert f"[{section}] {key}" in err[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["--max-depth", "abc"], "[walk] depth"),
    (["--max-depth", "-3"], "[walk] depth"),
    (["--tolerance", "2"], "[tolerances] exact"),
    (["--tolerance", "1e-300x"], "[tolerances] exact"),
], ids=["max_depth_text", "max_depth_negative", "tolerance_above_1", "tolerance_text"])
def test_bad_override_exits_2_before_any_output(cfg_file, tmp_path, capsys, argv, named):
    """The --max-depth and --tolerance overrides enter as config text and
    pass the same checks as the keys they replace."""
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg_file), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("walkops: precondition failure: ")
    assert named in err[0] and not out.exists()


def test_closed_form_compare_off_free_groups_exits_2_before_any_output(tmp_path, capsys):
    """The closed-form kernel is the free group's: a lattice report whose
    kernel job asks for it exits 2 before its spectrum job writes."""
    cfg = tmp_path / "lazy.ini"
    cfg.write_text(LAZY_Z_CFG + "\n[kernel]\nclosed_form_compare = yes\n"
                   "\n[report]\njobs = spectrum kernel\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "[kernel] closed_form_compare" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    (None, "missing.ini"),
    ("[group]\nfamily = free(2)\n\n[measure]\nfile = mu.txt\n", "mu.txt"),
    (FREE2_CFG + "\n[walk]\nsupport_cap = 10\n", "section 'walk' already exists"),
    (FREE2_CFG.replace("depth = 300", "depth = 300\ndepth = 200"),
     "option 'depth' in section 'walk' already exists"),
    ("depth = 300\n" + FREE2_CFG.lstrip(), "no section headers"),
], ids=["missing_config_file", "missing_measure_file", "duplicate_section",
        "duplicate_option", "missing_section_header"])
def test_unreadable_or_malformed_config_exits_2(tmp_path, capsys, text, named):
    """A config file that cannot be read, a [measure] file that cannot be
    read and an INI syntax error each exit 2 with one precondition-failure
    line, not a traceback."""
    cfg = tmp_path / "missing.ini"
    if text is not None:
        cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("walkops: precondition failure: ")
    assert named in err[0] and not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--cache-dir"])
def test_unwritable_path_exits_2(cfg_file, tmp_path, capsys, flag):
    """An --out or --cache-dir that names a regular file cannot be written:
    one precondition-failure line naming the error and exit 2, not a
    traceback and not exit 1, which means a red verdict."""
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = blocker if flag == "--out" else tmp_path / "out"
    argv = ["spectrum", "--config", str(cfg_file), "--out", str(out)]
    if flag == "--cache-dir":
        argv += [flag, str(blocker)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("walkops: precondition failure: ")
    assert "File exists" in err[0]
    assert blocker.read_text(encoding="utf-8") == ""


def test_radial_run_ignores_memory_budget(cfg_file, tmp_path, monkeypatch):
    """A free-group run takes no memory budget: its cache keeps a small
    block of radii and replays the rest.  With a block of radius 0 only
    and no room to widen it (``_BLOCK_BUDGET`` 0), every other radius the
    run reads replays keeping only its column, and the run writes the full
    run's output tree byte for byte and its cache artifact, which a second
    run reads."""
    full_out, zero_out = tmp_path / "full", tmp_path / "zero_out"
    assert main(["report", "--config", str(cfg_file), "--out", str(full_out)]) == 0
    monkeypatch.setattr(powers, "_RADIAL_BLOCK", 1)
    monkeypatch.setattr(powers, "_BLOCK_BUDGET", 0)
    for run in ("1", "2"):
        assert main(["report", "--config", str(cfg_file), "--out", str(zero_out / run),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert _tree(zero_out / run) == _tree(full_out)
    assert len(list((tmp_path / "cache").glob("powers-*.json"))) == 1


def test_config_round_trip(cfg_file):
    """A config file and its text parse to equal records with one hash."""
    cfg = RunConfig.from_file(cfg_file)
    cfg2 = RunConfig.from_text(cfg_file.read_text(encoding="utf-8"))
    assert cfg2 == cfg
    assert cfg2.content_hash() == cfg.content_hash()
    assert (cfg.walk.depth, cfg.fock.max_level, cfg.covariance.zeta) == (300, 10, 1j)
    assert cfg.fock.x == cfg.descriptor.identity()


def test_provenance_fields_present(cfg_file, tmp_path):
    out = tmp_path / "prov"
    assert main(["kernel", "--config", str(cfg_file), "--out", str(out)]) == 0
    doc = json.loads((out / "kernel.json").read_text())
    prov = doc["provenance"]
    for key in ("M", "rho_hat", "acceleration", "config_hash", "engine", "seed"):
        assert key in prov


LAMP_CAP_CFG = """
[group]
family = lamplighter(1)

[measure]
inline =
    (0,{{}}) 1/4
    (1,{{}}) 1/4
    (-1,{{}}) 1/4
    (0,{{0}}) 1/4

[walk]
depth = 12
support_cap = {cap}
"""


def test_cache_dir_truncated_artifact_not_reused(tmp_path, capsys):
    """A cache truncated by a small support_cap is not reloaded once the cap
    is raised, and a reloaded truncated cache keeps its budget note."""
    cache_dir = tmp_path / "cache"
    cfg = tmp_path / "lamp.ini"

    def spectrum(cap):
        cfg.write_text(LAMP_CAP_CFG.format(cap=cap), encoding="utf-8")
        code = main(["spectrum", "--config", str(cfg), "--out",
                     str(tmp_path / f"out{cap}"), "--cache-dir", str(cache_dir)])
        return code, capsys.readouterr().err

    code, err = spectrum(100)
    assert code == 3 and "stopped at level 5" in err
    code, err = spectrum(100000)
    assert code == 0 and err == ""
    assert len(list(cache_dir.glob("powers-*.json"))) == 2
    code, err = spectrum(100)  # reloads the truncated artifact
    assert code == 3 and "stopped at level 5" in err


def _tamper_generic(edit):
    """Damage a generic artifact's payload with ``edit``."""
    def damage(text):
        doc = json.loads(text)
        assert doc["version"] == ARTIFACT_VERSION and doc["engine"] == "generic"
        edit(doc["payload"])
        return json.dumps(doc, sort_keys=True)
    return damage


def _set_delta(i, value):
    """Set id delta ``i`` to ``value(size of the element table)``."""
    def edit(payload):
        deltas = _unpack(payload["ids"]).astype(np.int64)
        deltas[i] = value(len(_unpack(payload["elements"]["counts"])))
        payload["ids"] = _pack(deltas)
    return edit


def _non_ascii_vals(payload):
    data = payload["vals"]["data"]
    payload["vals"]["data"] = data[:3] + "\u00e9" + data[4:]


@pytest.mark.parametrize("damage", [
    _tamper_generic(_set_delta(2, lambda n: 0)),
    _tamper_generic(_set_delta(1, lambda n: n)),
    _tamper_generic(_non_ascii_vals),
], ids=["zero id delta", "id deltas past the table", "non-ASCII base64"])
def test_cache_dir_tampered_generic_artifact_rebuilt(tmp_path, capsys, damage):
    """A generic artifact whose id deltas or base64 text were tampered with
    is a cache miss: the run rebuilds and rewrites it, and its outputs equal
    a fresh run's."""
    cfg = tmp_path / "lamp.ini"
    cfg.write_text(LAMP_CAP_CFG.format(cap=100000), encoding="utf-8")
    cache_dir = tmp_path / "cache"

    def spectrum(out):
        code = main(["spectrum", "--config", str(cfg), "--out",
                     str(tmp_path / out), "--cache-dir", str(cache_dir)])
        return code, capsys.readouterr().err

    assert spectrum("fresh") == (0, "")
    (artifact,) = cache_dir.glob("powers-*.json")
    good = artifact.read_text(encoding="utf-8")
    artifact.write_text(damage(good), encoding="utf-8")
    code, err = spectrum("rebuilt")
    assert code == 0
    assert len(err.splitlines()) == 1 and "rebuilding" in err
    assert artifact.read_text(encoding="utf-8") == good
    assert ((tmp_path / "rebuilt" / "spectrum.json").read_bytes()
            == (tmp_path / "fresh" / "spectrum.json").read_bytes())


LAMP_REPORT_CFG = LAMP_CAP_CFG.format(cap=100000) + """
[kernel]
x_radius = 1
y_radius = 1

[radical]
ball_radius = 1
probe_radius = 1
"""


def _as_version_6(text):
    """The generic artifact as version 6 wrote it: each packed array's data
    the base64 of its raw bytes, not of a zlib stream."""
    doc = json.loads(text)
    assert doc["version"] == ARTIFACT_VERSION and doc["engine"] == "generic"
    payload = doc["payload"]
    for packed in (*payload["elements"].values(), payload["sizes"],
                   payload["log_scales"], payload["ids"], payload["vals"]):
        packed["data"] = base64.b64encode(_unpack(packed).tobytes()).decode("ascii")
    doc["version"] = 6
    return json.dumps(doc, sort_keys=True)


def _tree(out):
    """Every file under ``out``, by relative path, with its bytes."""
    return {str(f.relative_to(out)): f.read_bytes()
            for f in sorted(out.rglob("*")) if f.is_file()}


def test_cache_dir_version_6_generic_artifact_rebuilt(tmp_path, capsys):
    """A generic artifact as version 6 wrote it (raw base64, no zlib
    streams) is a cache miss: the report says so in one stderr line,
    rebuilds the cache, replaces the file with the version-7 artifact and
    writes the output tree of a fresh run."""
    cfg = tmp_path / "lamp.ini"
    cfg.write_text(LAMP_REPORT_CFG, encoding="utf-8")
    cache_dir = tmp_path / "cache"

    def report(out):
        code = main(["report", "--config", str(cfg), "--out",
                     str(tmp_path / out), "--cache-dir", str(cache_dir)])
        return code, capsys.readouterr().err

    assert report("fresh") == (0, "")
    (artifact,) = cache_dir.glob("powers-*.json")
    good = artifact.read_text(encoding="utf-8")
    old = _as_version_6(good)
    assert len(old) > 2 * len(good)
    artifact.write_text(old, encoding="utf-8")
    inode = artifact.stat().st_ino
    code, err = report("rebuilt")
    assert code == 0
    assert err.splitlines() == [
        f"walkops: rebuilding unreadable cache artifact {artifact.name}: "
        f"powers-cache artifact version 6, expected {ARTIFACT_VERSION}"]
    assert artifact.stat().st_ino != inode
    assert artifact.read_text(encoding="utf-8") == good
    assert _tree(tmp_path / "rebuilt") == _tree(tmp_path / "fresh")
    assert report("reused") == (0, "")


LAZY_Z_CFG = """
[group]
family = lattice(1)

[measure]
inline =
    (0) 1/2
    (1) 1/4
    (-1) 1/4

[walk]
depth = 64
"""


def _truncate(text):
    return text[:100]


def _lazy_z_levels():
    """This config's levels as (lat_lo, (r, *lattice) array, log scale), the
    layout of the former array payloads: a lattice level with a leading
    tree-radius axis of length 1, read off ``level_measure`` (level m of
    lazy Z is positive on -m..m)."""
    cfg = RunConfig.from_text(LAZY_Z_CFG)
    cache = convolution_powers(cfg.descriptor, cfg.measure, 64)
    levels = []
    for m in range(65):
        level = cache.level_measure(m)
        arr = np.array([[level.support[(v,)] for v in range(-m, m + 1)]])
        levels.append(((-m,), arr, level.log_scale))
    return levels


def _as_version_1(text):
    """The artifact as the version-1 dense format wrote it: ``lo`` and a
    lattice-only shape, no tree-radius axis, values as a float list."""
    doc = json.loads(text)
    doc["version"] = 1
    doc["payload"] = {"levels": [
        {"lo": list(lo), "shape": list(arr.shape[1:]), "values": arr.ravel().tolist(),
         "log_scale": log_scale}
        for lo, arr, log_scale in _lazy_z_levels()
    ]}
    return json.dumps(doc, sort_keys=True)


def _with_array_payload(text):
    """The artifact as the version-4 array format wrote it before array
    artifacts became recipes: every level in one packed array."""
    doc = json.loads(text)
    assert doc["version"] == ARTIFACT_VERSION and doc["payload"] == {}
    levels = _lazy_z_levels()
    doc["payload"] = {
        "lat_lo": _pack([lo for lo, _, _ in levels]),
        "shapes": _pack([arr.shape for _, arr, _ in levels]),
        "log_scales": _pack([ls for _, _, ls in levels]),
        "values": _pack(np.concatenate([arr.ravel() for _, arr, _ in levels])),
    }
    return json.dumps(doc, sort_keys=True)


def _as_version_3(text):
    """This config's artifact as the version-3 format wrote it (per-level
    float lists), kept under tests/data."""
    return (DATA / "lazy-z-depth64-v3.json").read_text(encoding="utf-8")


def _as_empty_list(text):
    return "[]"


def _as_incomplete(text):
    """The recipe marked as a build its budget stopped; an array build
    always completes."""
    doc = json.loads(text)
    doc["complete"], doc["budget_note"] = False, "stopped at level 3: x"
    return json.dumps(doc, sort_keys=True)


def _with_budget_note(text):
    doc = json.loads(text)
    doc["budget_note"] = "stopped at level 3: x"
    return json.dumps(doc, sort_keys=True)


def _without_payload(text):
    doc = json.loads(text)
    assert doc["version"] == ARTIFACT_VERSION
    del doc["payload"]
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "damage",
    [_truncate, _as_version_1, _as_version_3, _as_empty_list, _without_payload,
     _with_array_payload, _as_incomplete, _with_budget_note])
def test_cache_dir_unreadable_artifact_rebuilt(tmp_path, capsys, damage):
    """A truncated, old-format or malformed artifact, an array recipe that
    claims an incomplete build or a budget note included, is a cache miss:
    the run rebuilds and rewrites it, and its outputs equal a fresh
    run's."""
    cfg = tmp_path / "lazy.ini"
    cfg.write_text(LAZY_Z_CFG, encoding="utf-8")
    cache_dir = tmp_path / "cache"

    def spectrum(out):
        code = main(["spectrum", "--config", str(cfg), "--out",
                     str(tmp_path / out), "--cache-dir", str(cache_dir)])
        return code, capsys.readouterr().err

    assert spectrum("fresh") == (0, "")
    (artifact,) = cache_dir.glob("powers-*.json")
    good = artifact.read_text(encoding="utf-8")
    artifact.write_text(damage(good), encoding="utf-8")
    code, err = spectrum("rebuilt")
    assert code == 0
    assert len(err.splitlines()) == 1 and "rebuilding" in err
    assert artifact.read_text(encoding="utf-8") == good
    assert ((tmp_path / "rebuilt" / "spectrum.json").read_bytes()
            == (tmp_path / "fresh" / "spectrum.json").read_bytes())
    assert spectrum("reused") == (0, "")


def test_cache_dir_artifact_of_another_walk_rebuilt(tmp_path, capsys):
    """A valid artifact of another walk under this config's file name (a
    lattice(1) walk on steps 0 and +1 at depth 10, under the lazy-Z depth-64
    name) is not trusted: the run says so once, rebuilds and rewrites it."""
    cfg = tmp_path / "lazy.ini"
    cfg.write_text(LAZY_Z_CFG, encoding="utf-8")
    other = tmp_path / "other.ini"
    other.write_text(LAZY_Z_CFG.replace("(-1) 1/4", "").replace("1/4", "1/2")
                     .replace("depth = 64", "depth = 10"), encoding="utf-8")
    cache_dir = tmp_path / "cache"

    def spectrum(config, out, cache=cache_dir):
        code = main(["spectrum", "--config", str(config), "--out",
                     str(tmp_path / out), "--cache-dir", str(cache)])
        return code, capsys.readouterr().err

    assert spectrum(cfg, "fresh") == (0, "")
    (artifact,) = cache_dir.glob("powers-*.json")
    good = artifact.read_text(encoding="utf-8")
    assert spectrum(other, "other", tmp_path / "other-cache") == (0, "")
    (wrong,) = (tmp_path / "other-cache").glob("powers-*.json")
    artifact.write_text(wrong.read_text(encoding="utf-8"), encoding="utf-8")
    code, err = spectrum(cfg, "rebuilt")
    assert code == 0
    assert len(err.splitlines()) == 1 and "rebuilding" in err and "another walk" in err
    doc = json.loads((tmp_path / "rebuilt" / "spectrum.json").read_text())
    assert doc["provenance"]["M"] == 64
    assert doc["rho_hat"] == pytest.approx(0.99988, abs=5e-6)
    assert artifact.read_text(encoding="utf-8") == good
    assert ((tmp_path / "rebuilt" / "spectrum.json").read_bytes()
            == (tmp_path / "fresh" / "spectrum.json").read_bytes())
    assert spectrum(cfg, "reused") == (0, "")
