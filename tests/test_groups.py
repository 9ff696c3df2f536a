"""Group arithmetic, canonical forms, enumeration and the text grammar."""

import random

import numpy as np
import pytest

import walkops as w
from walkops.errors import (
    DescriptorMismatchError,
    ElementParseError,
    RadiusExhaustedError,
)
from walkops.powers import _pack, _unpack

ALL_DESCRIPTORS = [
    w.LatticeGroup(1),
    w.LatticeGroup(2),
    w.FreeGroup(2),
    w.LamplighterGroup(1),
    w.LamplighterGroup(2),
    w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1)),
    w.ProductGroup(w.LatticeGroup(1), w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))),
]


def _samples(desc, rng, count=40):
    gens = desc.generators()
    out = []
    for _ in range(count):
        g = desc.identity()
        for _ in range(rng.randrange(0, 7)):
            g = desc.multiply(g, rng.choice(gens))
        out.append(g)
    return out


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.spec_string())
def test_group_axioms_on_samples(desc):
    rng = random.Random(12345)
    xs = _samples(desc, rng)
    e = desc.identity()
    for a in xs:
        assert desc.multiply(a, e) == a
        assert desc.multiply(e, a) == a
        assert desc.multiply(a, desc.inverse(a)) == e
        assert desc.multiply(desc.inverse(a), a) == e
    for _ in range(60):
        a, b, c = rng.choice(xs), rng.choice(xs), rng.choice(xs)
        assert desc.multiply(desc.multiply(a, b), c) == desc.multiply(a, desc.multiply(b, c))


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.spec_string())
def test_word_length_subadditive(desc):
    rng = random.Random(999)
    xs = _samples(desc, rng, count=20)
    for _ in range(40):
        a, b = rng.choice(xs), rng.choice(xs)
        la = desc.word_length(a, max_radius=14)
        lb = desc.word_length(b, max_radius=14)
        lab = desc.word_length(desc.multiply(a, b), max_radius=14)
        assert lab <= la + lb
    assert desc.word_length(desc.identity()) == 0


def test_free_cancellation(free2):
    a = free2.parse("a")
    assert free2.multiply(a, free2.inverse(a)) == free2.identity()
    # ab -> inverse is b^-1 a^-1
    assert free2.inverse(free2.parse("ab")) == free2.parse("BA")
    assert free2.word_length(free2.parse("aBa")) == 3


def test_lattice_examples(lattice2):
    assert lattice2.multiply((1, 2), (-1, 0)) == (0, 2)
    assert lattice2.word_length((2, -1)) == 3


def test_lamplighter_multiplication_rule(lamp1):
    g = ((1,), ((0,),))
    assert lamp1.multiply(g, g) == ((2,), ((0,), (1,)))


def test_lamplighter_contains(lamp1):
    lamp2 = w.LamplighterGroup(2)
    assert lamp1.contains(((1,), ((-2,), (0,), (3,))))
    assert lamp2.contains(((0, 1), ((-1, 5), (0, -1), (0, 2))))
    for bad in (
        ((0,), ((1,), (1,))),            # duplicate lamp
        ((0,), ((2,), (1,))),            # lamps out of order
        ((0,), ((0, 1),)),               # lamp of the wrong dimension
        ((0,), ((1.0,),)),               # non-int lamp coordinate
        ((0.0,), ()),                    # non-int position
        ((0,), [(1,)]),                  # lamps not a tuple
        ((0,), ((0,), [1])),             # lamp not a tuple
        ((0,), ()) + ((),),              # not a pair
    ):
        assert not lamp1.contains(bad), bad
    assert not lamp2.contains(((0, 0), ((0, 1), (0, 1))))
    assert not lamp2.contains(((0, 0), ((0, 1), (0,))))


def _mul_by_symmetric_difference(a, b):
    (x, w_), (y, u) = a, b
    shifted = {tuple(p + q for p, q in zip(lamp, x)) for lamp in u}
    return (tuple(p + q for p, q in zip(x, y)), tuple(sorted(set(w_) ^ shifted)))


@pytest.mark.parametrize("dim", [1, 2])
def test_lamplighter_mul_matches_symmetric_difference(dim):
    """``_mul`` against the set rule, right factors without lamps included
    (the short-circuit path)."""
    lamp = w.LamplighterGroup(dim)
    rng = random.Random(2024 + dim)
    xs = _samples(lamp, rng, count=60)
    dark = [(x, ()) for x, _ in xs]
    assert sum(not u for _, u in xs) < len(xs)
    for _ in range(400):
        a = rng.choice(xs)
        b = rng.choice(xs + dark)
        got = lamp._mul(a, b)
        assert got == _mul_by_symmetric_difference(a, b)
        assert lamp.contains(got)


def _types(g):
    """The nested tuple/int structure of an element, by type."""
    if isinstance(g, tuple):
        return tuple(_types(c) for c in g)
    return type(g)


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.spec_string())
def test_element_codec_round_trip(desc):
    """decode(encode(xs)) == xs with Python-int tuples, also through the
    packed form the cache artifacts store (int32 arrays)."""
    xs = desc.ball(3) + _samples(desc, random.Random(5), count=40)
    assert desc.decode_elements(desc.encode_elements([])) == []
    arrays = desc.encode_elements(xs)
    assert all(arr.dtype.kind == "i" for arr in arrays.values())
    for arrs in (arrays, {k: _unpack(_pack(v)) for k, v in arrays.items()}):
        back = desc.decode_elements(arrs)
        assert back == xs
        assert [_types(g) for g in back] == [_types(g) for g in xs]


def _decode(desc, **arrays):
    return desc.decode_elements({k: np.array(v) for k, v in arrays.items()})


def test_element_codec_rejects_non_canonical_arrays(lattice2, free2, lamp1):
    assert _decode(free2, lengths=[1, 1, 0, 2], letters=[1, -1, 2, -1]) == [
        (1,), (-1,), (), (2, -1)]
    assert _decode(lamp1, pos=[[0], [0]], counts=[2, 1],
                   lamps=[[0], [3], [1]]) == [((0,), ((0,), (3,))), ((0,), ((1,),))]
    product = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    bad = [
        (lattice2, {"coords": [[0, 0, 0]]}),                     # wrong width
        (lattice2, {"coords": [0, 0]}),                          # not 2-d
        (lattice2, {"coords": [[0.0, 1.0]]}),                    # not integers
        (free2, {"lengths": [2], "letters": [1, -1]}),           # not reduced
        (free2, {"lengths": [1], "letters": [0]}),               # zero letter
        (free2, {"lengths": [1], "letters": [3]}),               # outside rank
        (free2, {"lengths": [1], "letters": [-3]}),
        (free2, {"lengths": [1], "letters": [-2**31]}),
        (free2, {"lengths": [1, 1], "letters": [1]}),            # past the letters
        (free2, {"lengths": [-1, 2], "letters": [1]}),           # negative length
        (lamp1, {"pos": [[0]], "counts": [2], "lamps": [[1], [1]]}),   # duplicate
        (lamp1, {"pos": [[0]], "counts": [2], "lamps": [[2], [1]]}),   # decreasing
        (lamp1, {"pos": [[0]], "counts": [1], "lamps": [[1, 0]]}),     # wrong width
        (lamp1, {"pos": [[0]], "counts": [2], "lamps": [[1]]}),        # short
        (lamp1, {"pos": [[0], [0]], "counts": [-1, 2], "lamps": [[1]]}),
        (lamp1, {"pos": [[0]], "counts": [0, 0], "lamps": np.zeros((0, 1), int)}),
        (product, {"left.lengths": [0, 0], "left.letters": np.zeros(0, int),
                   "right.coords": [[0]]}),                      # unequal factors
    ]
    for desc, arrays in bad:
        with pytest.raises(ElementParseError):
            _decode(desc, **arrays)
    with pytest.raises(ElementParseError):
        _decode(w.LamplighterGroup(2), pos=[[0, 0]], counts=[2],
                lamps=[[0, 1], [0, 1]])


def test_lamplighter_inverse_by_brute_force(lamp1):
    # unique inverse among short products, searched independently
    g = ((1,), ((0,),))
    e = lamp1.identity()
    found = []
    ball = lamp1.ball(3)
    for h in ball:
        if lamp1.multiply(g, h) == e:
            found.append(h)
    assert found == [lamp1.inverse(g)]
    assert lamp1.inverse(g) == ((-1,), ((-1,),))


def test_lamplighter_word_length_bfs(lamp1):
    # toggle the lamp at +1: go right, toggle, come back
    g = ((0,), ((1,),))
    assert lamp1.word_length(g, max_radius=4) == 3
    with pytest.raises(RadiusExhaustedError):
        lamp1.word_length(((9,), ()), max_radius=3)


def test_ball_sizes_free(free2):
    assert len(free2.ball(1)) == 5
    assert len(free2.ball(2)) == 17  # brute-force oracle below agrees


def test_ball_free_brute_force_oracle(free2):
    # independent enumeration of reduced words of length <= 2
    letters = [1, -1, 2, -2]
    words = {()}
    frontier = {()}
    for _ in range(2):
        nxt = set()
        for word in frontier:
            for letter in letters:
                if word and word[-1] == -letter:
                    continue
                nxt.add(word + (letter,))
        words |= nxt
        frontier = nxt
    assert set(free2.ball(2)) == words


def test_ball_order_lattice1(lattice1):
    got = lattice1.ball(3)
    assert got == [(0,), (1,), (-1,), (2,), (-2,), (3,), (-3,)]


def test_ball_prefix_stability():
    for desc in ALL_DESCRIPTORS:
        b3 = desc.ball(3)
        b4 = desc.ball(4)
        assert b4[: len(b3)] == b3
        assert b3[0] == desc.identity()


def test_phi_enumeration(free2):
    phi = free2.phi(2)
    assert phi[free2.identity()] == 1
    assert len(phi) == 17


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.spec_string())
def test_parse_format_round_trip(desc):
    rng = random.Random(77)
    for g in _samples(desc, rng, count=30):
        assert desc.parse(desc.format(g)) == g


def test_parse_free_conventions(free2):
    assert free2.parse("a*B") == free2.parse("aB")
    assert free2.parse("aA") == free2.identity()  # normalization policy
    assert free2.format(free2.identity()) == "e"
    with pytest.raises(ElementParseError):
        free2.parse("a1")
    with pytest.raises(ElementParseError):
        w.FreeGroup(1).parse("b")


def test_parse_lattice(lattice2):
    assert lattice2.parse("(1, 2)") == (1, 2)
    assert lattice2.format((1, 2)) == "(1,2)"
    with pytest.raises(ElementParseError):
        lattice2.parse("(1)")


def test_parse_lamplighter(lamp1):
    g = ((1,), ((0,), (2,)))
    text = lamp1.format(g)
    assert text == "(1,{0,2})"
    assert lamp1.parse(text) == g
    assert lamp1.parse("(0,{})") == lamp1.identity()


def test_parse_product():
    desc = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    g = (desc.left.parse("ab"), (3,))
    assert desc.format(g) == "(ab|(3))"
    assert desc.parse("(ab|(3))") == g


def test_descriptor_mismatch(free2, lattice1):
    with pytest.raises(DescriptorMismatchError):
        free2.multiply((1,), (0, 0))
    with pytest.raises(DescriptorMismatchError):
        lattice1.inverse((1, 2))


def test_descriptor_from_string():
    for desc in ALL_DESCRIPTORS:
        got = w.descriptor_from_string(desc.spec_string())
        assert got.spec_string() == desc.spec_string()
    with pytest.raises(ElementParseError):
        w.descriptor_from_string("nonsense(3)")


def test_ball_deterministic_across_instances():
    a = w.FreeGroup(2).ball(3)
    b = w.FreeGroup(2).ball(3)
    assert a == b


def test_ball_budget():
    from walkops.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        w.FreeGroup(2).ball(8, budget=100)


def test_lamplighter_d2_arithmetic():
    lamp = w.LamplighterGroup(2)
    g = ((1, 0), (((0, 0),)))
    h = lamp.multiply(g, g)
    assert h == ((2, 0), ((0, 0), (1, 0)))
    assert lamp.multiply(h, lamp.inverse(h)) == lamp.identity()
    assert lamp.parse(lamp.format(h)) == h


def test_nesting_depth_cap():
    deep = w.FreeGroup(2)
    for _ in range(4):
        deep = w.ProductGroup(deep, w.LatticeGroup(1))
    with pytest.raises(ValueError):
        w.ProductGroup(deep, w.LatticeGroup(1))
