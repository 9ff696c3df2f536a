"""CLI: determinism, exit codes, artifacts, config round-trips, caching."""

import json
from pathlib import Path

import numpy as np
import pytest

from walkops.cli import main
from walkops.config import RunConfig
from walkops.powers import _unpack

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


TRACKED_PRODUCT_CFG = """
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
memory_budget_mb = 4

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


def test_tracked_product_cache_full_pipeline(tmp_path):
    """A deep Cartesian-product run whose memory budget forces tracked
    retention still supports every command, including the Fock window."""
    cfg = tmp_path / "deep.ini"
    cfg.write_text(TRACKED_PRODUCT_CFG, encoding="utf-8")
    out = tmp_path / "deep_out"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "report.json").read_text())
    assert summary["all_passed"]
    rad = json.loads((out / "radical.json").read_text())
    assert "(e|(1))" in rad["flagged"] and "(a|(0))" not in rad["flagged"]


def test_config_round_trip(cfg_file):
    cfg = RunConfig.from_file(cfg_file)
    text = cfg.to_text()
    cfg2 = RunConfig.from_text(text)
    assert cfg2.sections == cfg.sections
    assert cfg2.content_hash() == cfg.content_hash()


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


def _as_version_1(text):
    """The artifact as the version-1 dense format wrote it: ``lo`` and a
    lattice-only shape, no tree-radius axis, values as a float list."""
    doc = json.loads(text)
    payload = {key: _unpack(arr) for key, arr in doc["payload"].items()}
    bounds = np.cumsum(payload["shapes"].prod(axis=1))[:-1]
    doc["version"] = 1
    doc["payload"] = {"levels": [
        {"lo": lo, "shape": shape[1:], "values": values.tolist(),
         "log_scale": log_scale}
        for lo, shape, values, log_scale in zip(
            payload["lat_lo"].tolist(), payload["shapes"].tolist(),
            np.split(payload["values"], bounds), payload["log_scales"].tolist())
    ]}
    return json.dumps(doc, sort_keys=True)


def _as_version_3(text):
    """This config's artifact as the version-3 format wrote it (per-level
    float lists), kept under tests/data."""
    return (DATA / "lazy-z-depth64-v3.json").read_text(encoding="utf-8")


def _as_empty_list(text):
    return "[]"


def _without_payload(text):
    doc = json.loads(text)
    assert doc["version"] == 4
    del doc["payload"]
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "damage",
    [_truncate, _as_version_1, _as_version_3, _as_empty_list, _without_payload])
def test_cache_dir_unreadable_artifact_rebuilt(tmp_path, capsys, damage):
    """A truncated, old-format or malformed artifact is a cache miss: the
    run rebuilds and rewrites it, and its outputs equal a fresh run's."""
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
