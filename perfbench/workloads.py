"""The two benchmark workloads, run inside a fresh child process.

Each workload builds its inputs from the seed (the seed changes which
inputs, never how many), runs walkops on them, checks the outputs and
returns ``(checks, info)``: ``checks`` is a list of ``[name, passed]``.

Why these two (see NOTES.md for the measured breakdown):

* ``report-f2``: the CLI ``report`` path users run; every layer except the
  generic engine and cache serialization, with a Fock window of ~19k
  vectors so the Fock layer is measured here too.
* ``lamplighter-roundtrip``: the only user of the generic engine, the
  checked group law in its inner loop and the scatter kernel, plus the
  cache export/import round trip.

The criterion-5 F2 x Z kernel table is a probe (``probes.py``), not a
workload: its kernel entries are measured in every traced run.

walkops is imported inside the workload functions on purpose: the child
may wrap the package for tracing first, and every call must go through
the wrapped names.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

# -- report-f2 -----------------------------------------------------------------

LETTERS = "aAbB"

REPORT_CFG = """\
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
depth = {depth}

[kernel]
x_radius = 2
y_radius = 2

[radical]
ball_radius = 2
probe_radius = 1

[metric]
pairs = {p} {q}; {p} {p_inv}
ball_radius = 2

[boundary]
ray = {ray}
k_min = 6
k_max = 12
tolerance = 0.01

[fock]
max_level = {max_level}
x_radius = 2
z_radius = {z_radius}
interior_margin = 4

[covariance]
g = {g}
zeta = i
n = 1
x = e
y = {y}

[report]
jobs = spectrum kernel radical metric boundary fock covariance
"""


def report_config(seed: int, small: bool) -> str:
    """The README example config with the Fock window raised to 19,241
    vectors; the seed picks the generator letters."""
    rng = random.Random(seed)
    p = rng.choice(LETTERS)
    p_inv = p.swapcase()
    q = rng.choice([c for c in LETTERS if c not in (p, p_inv)])
    return REPORT_CFG.format(
        depth=300 if small else 2000,
        max_level=10 if small else 24,
        z_radius=2 if small else 3,
        p=p, q=q, p_inv=p_inv,
        ray=rng.choice(LETTERS), g=rng.choice(LETTERS), y=rng.choice(LETTERS),
    )


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def run_report_f2(seed: int, out_dir: Path, small: bool):
    from walkops import cli

    cfg = out_dir / "run.ini"
    cfg.write_text(report_config(seed, small), encoding="utf-8")
    target = out_dir / "out"
    rc = cli.main(["report", "--config", str(cfg), "--out", str(target),
                   "--seed", str(seed)])
    report = json.loads((target / "report.json").read_text(encoding="utf-8"))
    checks = [["exit_code_0", rc == 0], ["all_passed", report["all_passed"] is True]]
    return checks, {"digest": tree_digest(target)}


# -- lamplighter-roundtrip ---------------------------------------------------------

LAMP_SUPPORT = ("(0,{})", "(1,{})", "(-1,{})", "(0,{0})")
MASS_TOL = 1e-12


def lamplighter_measure(seed: int) -> str:
    """Seeded rational weights on the fixed lazy lamplighter support."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 9) for _ in LAMP_SUPPORT]
    total = sum(weights)
    return "\n".join(f"{g} {k}/{total}" for g, k in zip(LAMP_SUPPORT, weights))


def run_lamplighter_roundtrip(seed: int, out_dir: Path, small: bool):
    import walkops as w

    group = w.LamplighterGroup(1)
    mu = w.parse_measure(lamplighter_measure(seed), group)
    depth = 10 if small else 18
    cache = w.convolution_powers(group, mu, depth, engine="generic")
    w.spectral_radius(cache)
    artifact = out_dir / "powers.json"
    artifact.write_text(w.export_cache_json(cache), encoding="utf-8")
    back = w.import_cache_json(artifact.read_text(encoding="utf-8"))

    ball = group.ball(4)
    checks = []
    for m in range(depth + 1):
        checks.append([f"mass_{m}", abs(cache.level_mass(m) - 1.0) <= MASS_TOL])
        same = all(back.log_value(m, g) == cache.log_value(m, g) for g in ball)
        checks.append([f"roundtrip_{m}", same and back.depth == cache.depth])
    return checks, {"artifact_bytes": os.path.getsize(artifact)}


WORKLOADS = {
    "report-f2": run_report_f2,
    "lamplighter-roundtrip": run_lamplighter_roundtrip,
}
