"""Measures, validation, tree sphere counts and the radial calculus."""

import math

import numpy as np
import pytest

import walkops as w
from walkops.errors import ElementParseError, IsotropyError
from walkops.measures import log_radial_mass, radial_step, sphere_size


def test_parse_measure_fractions_and_decimals(lattice1):
    mu = w.parse_measure("(0) 1/2\n(1) 0.25\n(-1) 1/4  # comment", lattice1)
    assert mu.value((0,)) == pytest.approx(0.5, abs=1e-15)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_parse_measure_rejects_bad_lines(lattice1):
    with pytest.raises(ElementParseError):
        w.parse_measure("(0)", lattice1)
    with pytest.raises(ElementParseError):
        w.parse_measure("(0) 1/2\n(0) 1/2", lattice1)


def test_scaled_measure_normalization(lattice1):
    mu = w.ScaledMeasure.from_values({(0,): 0.5, (1,): 0.25}, lattice1)
    assert max(mu.support.values()) == 1.0
    assert mu.value((0,)) == pytest.approx(0.5, rel=1e-15)


def test_validate_lazy_walk(lattice1, lazy_z):
    rep = w.validate_measure(w.convolution_powers(lattice1, lazy_z, 12))
    assert rep.valid and rep.mass_ok and rep.nonnegative
    assert rep.symmetric
    assert rep.aperiodic and rep.period == 1
    assert rep.generates == "yes"


def test_validate_srw_periodic(lattice1):
    mu = w.parse_measure("(1) 1/2\n(-1) 1/2", lattice1)
    rep = w.validate_measure(w.convolution_powers(lattice1, mu, 12))
    assert rep.symmetric
    assert rep.period == 2 and rep.aperiodic is False


def test_validate_point_mass_fails_generation(lattice1):
    mu = w.ScaledMeasure.from_values({(0,): 1.0}, lattice1)
    rep = w.validate_measure(w.convolution_powers(lattice1, mu, 12))
    assert rep.generates == "no"
    assert not rep.valid


def test_validate_flags_bad_mass(lattice1):
    mu = w.ScaledMeasure.from_values({(0,): 0.5, (1,): 0.25}, lattice1)
    rep = w.validate_measure(w.convolution_powers(lattice1, mu, 12))
    assert not rep.mass_ok and not rep.valid


@pytest.mark.parametrize("family, text, period", [
    ("lattice(1)", "(0) 1/2\n(1) 1/4\n(-1) 1/4", 1),
    ("lattice(1)", "(1) 1/2\n(-1) 1/2", 2),
    ("free(2)", "a 1/4\nA 1/4\nb 1/4\nB 1/4", 2),
    ("lamplighter(1)", "(0,{}) 1/4\n(1,{}) 1/4\n(-1,{}) 1/4\n(0,{0}) 1/4", 1),
])
def test_validate_with_cache_matches_own_probe(family, text, period):
    """A depth-12 probe cache and a deeper run cache of one walk give one
    verdict."""
    desc = w.descriptor_from_string(family)
    mu = w.parse_measure(text, desc)
    probe = w.validate_measure(w.convolution_powers(desc, mu, 12))
    cached = w.validate_measure(w.convolution_powers(desc, mu, 16))
    assert probe.period == cached.period == period
    assert probe.aperiodic == cached.aperiodic == (period == 1)
    assert probe.valid == cached.valid
    assert probe.generates == cached.generates


def test_validate_isotropic_f2_has_no_probe_cap(free2, iso_f2):
    rep = w.validate_measure(w.convolution_powers(free2, iso_f2, 12))
    assert rep.aperiodic and rep.period == 1
    assert not any("support cap" in msg for msg in rep.messages)


def test_validate_probe_cap_message(lamp1, lamp_mu):
    # a cache stopped by its support cap before the depth asked for
    cache = w.convolution_powers(lamp1, lamp_mu, 12, support_cap=50)
    assert not cache.complete and cache.depth < 12
    rep = w.validate_measure(cache)
    assert ("cache stopped at its support cap: the period reads only the "
            "levels it holds") in rep.messages
    assert rep.aperiodic and rep.period == 1


@pytest.mark.parametrize("family, text", [
    ("free(2)", "e 1/5\na 1/5\nA 1/5\nb 1/5\nB 1/5"),
    ("free(2)", "e 1/5\na 3/10\nA 3/10\nb 1/10\nB 1/10"),
    ("free(2)", "a 1/2\nA 1/6\nb 1/6\nB 1/6"),  # no identity mass: period 2
    ("lattice(1)", "(1) 1/2\n(-1) 1/2"),
], ids=["f2-lazy-isotropic", "f2-lazy-anisotropic", "f2-anisotropic", "z-srw"])
def test_validate_builds_no_cache(family, text, monkeypatch):
    """Validation reads the period from the cache it is given and builds
    none, for any walk."""
    desc = w.descriptor_from_string(family)
    mu = w.parse_measure(text, desc)
    cache = w.convolution_powers(desc, mu, 8)
    expected = w.is_aperiodic(cache)

    def no_cache(*args, **kwargs):
        raise AssertionError("validate_measure built a cache")

    monkeypatch.setattr(w.powers, "convolution_powers", no_cache)
    monkeypatch.setattr(w, "convolution_powers", no_cache)
    rep = w.validate_measure(cache)
    assert (rep.aperiodic, rep.period) == expected
    assert rep.period == (1 if desc.identity() in mu.support else 2)
    assert not any("support cap" in msg for msg in rep.messages)
    assert rep.valid


def test_validate_no_return_within_probe(lattice1):
    # first return to 0 at m = 4 (three -1 steps balance one +3)
    mu = w.parse_measure("(3) 1/2\n(-1) 1/2", lattice1)
    rep = w.validate_measure(w.convolution_powers(lattice1, mu, 3))
    assert rep.period is None and rep.aperiodic is None
    assert "no return to identity within 3 steps" in rep.messages
    rep = w.validate_measure(w.convolution_powers(lattice1, mu, 4))
    assert rep.period == 4 and rep.aperiodic is False


def test_convolve_examples(lattice1, free2, lazy_z):
    delta = w.ScaledMeasure.point_mass(lattice1)
    conv = w.convolve(delta, lazy_z, lattice1)
    assert conv.value((1,)) == pytest.approx(0.25, rel=1e-15)
    two = w.convolve(lazy_z, lazy_z, lattice1)
    assert two.value((0,)) == pytest.approx(3 / 8, rel=1e-14)
    srw4 = w.parse_measure("a 1/4\nA 1/4\nb 1/4\nB 1/4", free2)
    sq = w.convolve(srw4, srw4, free2)
    assert sq.value(free2.identity()) == pytest.approx(1 / 4, rel=1e-14)


# ---------------------------------------------------------------------------
# homogeneous-tree counts
# ---------------------------------------------------------------------------

def _tree_ball(q, radius):
    """Brute-force ball of the q-regular tree as reduced words over q/2
    free letters (q even), with adjacency = length-1 difference."""
    s = q // 2
    desc = w.FreeGroup(s)
    return desc, desc.ball(radius)


def _tree_dist(desc, u, v):
    return len(desc.multiply(desc.inverse(u), v))


def _sphere_count(n, k, l, q):
    """Vertices u of the q-regular tree with d(e,u)=k and d(u,w)=l, where
    d(e,w)=n, as the radial step counts them: the radial convolution of
    the indicators of radius k and radius l, read at radius n."""
    out = radial_step(np.eye(k + 1)[k], np.eye(l + 1)[l], q)
    return out[n] if n < len(out) else 0.0


@pytest.mark.parametrize("q", [2, 4, 6])
def test_tree_sphere_count_brute_force(q):
    desc, ball = _tree_ball(q, 5)
    for n in range(0, 3):
        word_w = tuple([1] * n)
        for k in range(0, 4):
            for l in range(0, 6):
                expected = sum(
                    1
                    for u in ball
                    if len(u) == k and _tree_dist(desc, u, word_w) == l
                )
                assert _sphere_count(n, k, l, q) == expected, (n, k, l, q)


def test_tree_sphere_count_closed_cases():
    assert _sphere_count(3, 0, 3, 4) == 1
    assert _sphere_count(1, 1, 0, 4) == 1
    assert _sphere_count(1, 1, 2, 4) == 3
    for k in range(1, 6):
        assert _sphere_count(0, k, k, 4) == 4 * 3 ** (k - 1)
    assert _sphere_count(1, 1, 1, 4) == 0  # parity


def test_sphere_size():
    assert [sphere_size(4, r) for r in range(4)] == [1, 4, 12, 36]


# ---------------------------------------------------------------------------
# radial calculus
# ---------------------------------------------------------------------------

def test_radial_reduce_uniform(free2, iso_f2):
    radial = w.radial_reduce(iso_f2, free2)
    assert radial.tree_degree == 4
    scale = math.exp(radial.log_scale)
    assert radial.values[0] * scale == pytest.approx(1 / 5, rel=1e-15)
    assert radial.values[1] * scale == pytest.approx(1 / 5, rel=1e-15)
    mass = log_radial_mass(radial.values, 4) + radial.log_scale
    assert math.exp(mass) == pytest.approx(1.0, rel=1e-12)


def test_radial_reduce_rejects_anisotropic(free2):
    mu = w.parse_measure("a 1/2\nA 1/6\nb 1/6\nB 1/6", free2)
    with pytest.raises(IsotropyError):
        w.radial_reduce(mu, free2)


def test_radial_point_mass_identity(free2, iso_f2):
    f = w.radial_reduce(iso_f2, free2)
    out = radial_step(np.array([1.0]), f.values, 4)
    assert out == pytest.approx(f.values, rel=1e-14, abs=1e-300)


def test_radial_convolve_matches_generic(free2, iso_f2):
    """Radial engine vs element-wise convolution, all radii, m <= 8."""
    step = w.radial_reduce(iso_f2, free2)
    values, log_scale = step.values, step.log_scale
    generic = iso_f2
    for m in range(2, 9):
        values = radial_step(values, step.values, 4)
        log_scale += step.log_scale
        generic = w.convolve(generic, iso_f2, free2)
        for g, v in generic.items_values():
            assert values[len(g)] * math.exp(log_scale) == pytest.approx(v, rel=1e-12), \
                (m, g)
        mass = log_radial_mass(values, 4) + log_scale
        assert math.exp(mass) == pytest.approx(1.0, rel=1e-11)
