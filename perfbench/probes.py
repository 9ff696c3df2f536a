"""Isolated layer probes, for layers too fine-grained or absent in the
workloads.  Run in their own child process during a traced run.

* the checked group law, per family, in microseconds per call;
* the scatter-add micro case of ``benchmarks/bench_kernels.py``
  (120k x 6 products onto 400k ids, best of 5);
* the dense ``lattice(2)`` depth-128 cache: build, JSON export and import;
* the criterion-5 F2 x Z kernel table: the radial-lattice cache at M=500,
  the spectral radius, kernel entries on 600 seeded pairs of
  ``ball(2) x [-2,2]`` and the radical, with the outputs checked.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

import walkops as w

LAZY_Z2 = "(0,0) 1/2\n(1,0) 1/8\n(-1,0) 1/8\n(0,1) 1/8\n(0,-1) 1/8"

FAMILIES = {
    "lattice": "lattice(2)",
    "free": "free(2)",
    "lamplighter": "lamplighter(1)",
    "product": "product(free(2),lattice(1))",
}


def multiply_us(spec: str, reps: int = 5) -> float:
    """Median over ``reps`` of the mean cost of one checked multiply over
    all pairs of ``ball(2)``."""
    desc = w.descriptor_from_string(spec)
    ball = desc.ball(2)
    pairs = [(a, b) for a in ball for b in ball]
    while len(pairs) < 20_000:
        pairs += pairs
    mul = desc.multiply
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a, b in pairs:
            mul(a, b)
        times.append((time.perf_counter() - t0) / len(pairs))
    return statistics.median(times) * 1e6


def scatter_ms(reps: int = 5) -> float:
    from walkops import _backend

    rng = np.random.default_rng(0)
    n_ids = 400_000
    rows = rng.integers(0, n_ids, size=(120_000, 6)).astype(np.int64)
    level_vals = rng.random(120_000)
    mu_vals = rng.random(6)
    best = float("inf")
    for _ in range(reps):
        acc = np.zeros(n_ids)
        t0 = time.perf_counter()
        _backend.scatter_add_outer(acc, rows, level_vals, mu_vals)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def lattice2_roundtrip(depth: int):
    desc = w.LatticeGroup(2)
    mu = w.parse_measure(LAZY_Z2, desc)
    t0 = time.perf_counter()
    cache = w.convolution_powers(desc, mu, depth)
    t1 = time.perf_counter()
    text = w.export_cache_json(cache)
    t2 = time.perf_counter()
    back = w.import_cache_json(text)
    t3 = time.perf_counter()
    probe_points = desc.ball(3)
    same = all(back.log_value(m, g) == cache.log_value(m, g)
               for m in range(0, depth + 1, 8) for g in probe_points)
    numbers = {
        "probe.lattice2.build_s": t1 - t0,
        "probe.lattice2.export_s": t2 - t1,
        "probe.lattice2.import_s": t3 - t2,
        "probe.lattice2.artifact_mib": len(text) / 2**20,
    }
    return numbers, [["lattice2_roundtrip", same]]


CARTESIAN_F2Z = (
    "(e|(0)) 0.35\n"
    "(a|(0)) 0.1\n(A|(0)) 0.1\n(b|(0)) 0.1\n(B|(0)) 0.1\n"
    "(e|(1)) 0.125\n(e|(-1)) 0.125"
)
FACTOR_TOL = 0.02  # criterion 5


def kernels_f2xz(seed: int, n_pairs: int):
    """Kernel entries on the criterion-5 F2 x Z cache; each entry must lie
    within 2% of the closed form, and the radical must be the Z-ball."""
    group = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    mu = w.parse_measure(CARTESIAN_F2Z, group)
    f2 = group.left
    track = [(word, (v,)) for word in f2.ball(4) for v in range(-4, 5)]
    t0 = time.perf_counter()
    cache = w.convolution_powers(group, mu, 500,
                                 track=track, memory_budget_mb=64)
    est = w.spectral_radius(cache)
    table = w.KernelTable(cache, rho_hat=est.rho_hat)
    t1 = time.perf_counter()

    points = [(word, (v,)) for word in f2.ball(2) for v in range(-2, 3)]
    rng = random.Random(seed)
    pairs = [(rng.choice(points), rng.choice(points)) for _ in range(n_pairs)]
    estimates = [table.get(x, y).estimate for x, y in pairs]
    t2 = time.perf_counter()
    entries = len(table.entries())
    radical = w.detect_radical(table, ball_radius=2, probe_radius=1)
    t3 = time.perf_counter()

    checks = []
    for (x, y), got in zip(pairs, estimates):
        exact = w.closed_form_H_free_isotropic(2, x[0], y[0])
        checks.append([f"H{x}{y}", abs(got - exact) / exact <= FACTOR_TOL])
    z_ball = {((), (v,)) for v in range(-2, 3)}
    checks.append(["radical_is_z_ball", set(radical.flagged) == z_ball])
    numbers = {
        "probe.kernels_f2xz.build_s": t1 - t0,
        "probe.kernels_f2xz.entries": entries,
        "probe.kernels_f2xz.entry_ms": (t2 - t1) / entries * 1e3,
        "probe.kernels_f2xz.radical_s": t3 - t2,
    }
    return numbers, checks


def run_all(seed: int, small: bool):
    numbers = {f"probe.multiply_us.{fam}": multiply_us(spec)
               for fam, spec in FAMILIES.items()}
    numbers["probe.scatter_ms"] = scatter_ms()
    cache_numbers, checks = lattice2_roundtrip(32 if small else 128)
    numbers.update(cache_numbers)
    kernel_numbers, kernel_checks = kernels_f2xz(seed, 40 if small else 600)
    numbers.update(kernel_numbers)
    return numbers, checks + kernel_checks
