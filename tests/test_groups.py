"""Group arithmetic, canonical forms, enumeration and the text grammar."""

import random

import numpy as np
import pytest

import walkops as w
from walkops import groups
from walkops.config import RunConfig
from walkops.errors import (
    DescriptorMismatchError,
    ElementParseError,
    RadiusExhaustedError,
)
from walkops.groups import _ranges
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
def test_word_length_subadditive(desc, monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_BFS_RADIUS", 14)
    rng = random.Random(999)
    xs = _samples(desc, rng, count=20)
    for _ in range(40):
        a, b = rng.choice(xs), rng.choice(xs)
        la = desc.word_length(a)
        lb = desc.word_length(b)
        lab = desc.word_length(desc.multiply(a, b))
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


BATCH_DESCRIPTORS = [
    w.LatticeGroup(1),
    w.LatticeGroup(3),
    w.FreeGroup(2),
    w.FreeGroup(3),
    w.LamplighterGroup(1),
    w.LamplighterGroup(2),
    w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1)),
    w.ProductGroup(w.LamplighterGroup(1), w.FreeGroup(2)),
    w.ProductGroup(w.LatticeGroup(1), w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))),
]


def _assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert (got[key].dtype, got[key].shape) == (want[key].dtype, want[key].shape), key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@pytest.mark.parametrize("desc", BATCH_DESCRIPTORS, ids=lambda d: d.spec_string())
def test_mul_encoded_matches_mul(desc):
    """The batch law equals the per-element law array for array: ball(3)
    (and an empty batch) times every element of the support of the uniform
    measure on ball(2), which holds multi-letter words and lit lamps."""
    ball = desc.ball(3)
    arrays = desc.encode_elements(ball)
    empty = desc.encode_elements([])
    for s in desc.ball(2):
        _assert_same_arrays(desc.mul_encoded(arrays, s),
                            desc.encode_elements([desc._mul(g, s) for g in ball]))
        _assert_same_arrays(desc.mul_encoded(empty, s), empty)
    idx = np.array([len(ball) - 1, 0, 3, 3, 1])
    _assert_same_arrays(desc.take_encoded(arrays, idx),
                        desc.encode_elements([ball[i] for i in idx]))
    assert desc.check_encoded(arrays) == len(ball)


def test_ranges_matches_arange_plus_repeat():
    """``_ranges`` equals the arange-plus-repeat formula it replaced, as
    int64, on random starts and counts of several widths: zero-length runs
    at the head, middle and tail, runs of zeros only, one run, and an empty
    batch."""
    def formula(starts, counts):
        starts, counts = starts.astype(np.int64), counts.astype(np.int64)
        ends = np.cumsum(counts)
        return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
            starts - (ends - counts), counts)

    rng = np.random.default_rng(11)
    cases = [([], []), ([5], [0]), ([7], [3]), ([4, 9, 2], [0, 0, 0]),
             ([3, 8, 1, 6], [0, 2, 0, 0]), ([-4, 0, 30], [2, 0, 1])]
    for _ in range(300):
        n = int(rng.integers(0, 40))
        cases.append((rng.integers(-100, 100, size=n), rng.integers(0, 4, size=n)))
    for dtype in (np.int8, np.int32, np.int64):
        for starts, counts in cases:
            starts, counts = np.array(starts, dtype=dtype), np.array(counts, dtype=dtype)
            got = _ranges(starts, counts)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, formula(starts, counts))


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
    bad.append((w.LamplighterGroup(2),
                {"pos": [[0, 0]], "counts": [2], "lamps": [[0, 1], [0, 1]]}))
    bad.append((w.LamplighterGroup(2),                          # (0, 1) > (0, 0)
                {"pos": [[0, 0]], "counts": [2], "lamps": [[0, 1], [0, 0]]}))
    bad.append((w.LamplighterGroup(2),                          # (1, 0) > (0, 5)
                {"pos": [[0, 0]], "counts": [2], "lamps": [[1, 0], [0, 5]]}))
    assert _decode(w.LamplighterGroup(2), pos=[[0, 0]], counts=[2],
                   lamps=[[0, 5], [1, 0]]) == [((0, 0), ((0, 5), (1, 0)))]
    for desc, arrays in bad:
        with pytest.raises(ElementParseError):
            _decode(desc, **arrays)
        with pytest.raises(ElementParseError):
            desc.check_encoded({k: np.array(v) for k, v in arrays.items()})


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


def test_lamplighter_word_length_bfs(lamp1, monkeypatch):
    # toggle the lamp at +1: go right, toggle, come back
    g = ((0,), ((1,),))
    monkeypatch.setattr(groups, "DEFAULT_BFS_RADIUS", 4)
    assert lamp1.word_length(g) == 3
    monkeypatch.setattr(groups, "DEFAULT_BFS_RADIUS", 3)
    with pytest.raises(RadiusExhaustedError, match="exceeds BFS radius 3"):
        lamp1.word_length(((9,), ()))


def test_lamplighter_word_length_reads_ball_spheres(monkeypatch):
    """The seven word lengths a boundary trace asks for along the (1,{0})
    ray (k = 6..12; lengths 2k, four of them past the default BFS radius
    16) make no more group products than one ball(16) build."""

    def counted(group):
        calls = [0]
        law = group.multiply

        def multiply(a, b):
            calls[0] += 1
            return law(a, b)

        monkeypatch.setattr(group, "multiply", multiply)
        return calls

    lamp = w.LamplighterGroup(1)
    g = ((1,), ((0,),))
    ray = [lamp.identity()]
    for _ in range(12):
        ray.append(lamp.multiply(ray[-1], g))
    calls = counted(lamp)
    lengths = []
    for y in ray[6:]:
        try:
            lengths.append(lamp.word_length(y))
        except RadiusExhaustedError:
            lengths.append(None)
    assert lengths == [12, 14, 16, None, None, None, None]

    fresh = w.LamplighterGroup(1)
    ball_calls = counted(fresh)
    fresh.ball(16)
    assert calls[0] <= ball_calls[0]


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


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.spec_string())
def test_parse_format_round_trip(desc):
    rng = random.Random(77)
    for g in _samples(desc, rng, count=30):
        assert desc.parse(desc.format(g)) == g


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.spec_string())
def test_config_element_lists_read_back(desc):
    """``[boundary] elements`` (comma-separated) and ``[metric] pairs``
    (';'-separated, whitespace within a pair) read back as the elements
    they format, for every family: only top-level separators split, also
    with a space after each comma inside an element."""
    rng = random.Random(2024)
    elems = _samples(desc, rng, count=12)
    pairs = list(zip(_samples(desc, rng, count=8), _samples(desc, rng, count=8)))
    for fmt in (desc.format, lambda g: desc.format(g).replace(",", ", ")):
        text = (f"[group]\nfamily = {desc.spec_string()}\n"
                f"[measure]\ninline = {fmt(desc.identity())} 1\n"
                f"[boundary]\nelements = {', '.join(map(fmt, elems))}\n"
                f"[metric]\npairs = {'; '.join(f'{fmt(a)} {fmt(b)}' for a, b in pairs)}\n")
        cfg = RunConfig.from_text(text)
        assert cfg.boundary.elements == tuple(elems)
        assert cfg.metric.pairs == tuple(pairs)


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.spec_string())
@pytest.mark.parametrize("text", ["(1,,2)", "(1,2,)", "(,1,2)", "(1,{0}", "(ab|(3)|(4))",
                                  "a b", "(0,{0}))", "(1_0,0)", "(\u0663,0)",
                                  "(0,{\uff12})"])
def test_parse_rejects_malformed_text(desc, text):
    """Empty coordinates, unbalanced brackets, a second top-level '|',
    whitespace inside a free word and integers that are not ASCII digits
    (digit-group underscores, Arabic-Indic or fullwidth digits) name no
    element of any family."""
    with pytest.raises(ElementParseError):
        desc.parse(text)


def _nested_product(depth: int) -> str:
    spec = "free(1)"
    for _ in range(depth):
        spec = f"product({spec},free(1))"
    return spec


@pytest.mark.parametrize("spec", ["product(free(2),lattice(1)", "free(2)x", "product(free(2))",
                                  "lattice(1,2)", "free()", "lattice(1_0)", "free(\uff12)",
                                  "free(0)", "lattice(-1)", "lamplighter(0)",
                                  _nested_product(w.ProductGroup.MAX_NESTING + 1)])
def test_descriptor_from_string_rejects_malformed_text(spec):
    """Malformed text and well-formed text with an out-of-range argument
    (a rank or dimension below 1, products nested too deep) both raise
    ElementParseError."""
    with pytest.raises(ElementParseError):
        w.descriptor_from_string(spec)


def test_parse_free_conventions(free2):
    assert free2.parse("a*B") == free2.parse("aB")
    assert free2.parse("aA") == free2.identity()  # normalization policy
    assert free2.format(free2.identity()) == "e"
    with pytest.raises(ElementParseError):
        free2.parse("a1")
    with pytest.raises(ElementParseError):
        w.FreeGroup(1).parse("b")


def test_free_whitespace_surrounds_but_never_joins(free2):
    assert free2.parse(" aB ") == free2.parse("a * B") == free2.parse("aB")
    with pytest.raises(ElementParseError):
        free2.parse("a B")


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


def test_ball_budget(monkeypatch):
    from walkops.errors import BudgetExceededError

    monkeypatch.setattr(groups, "DEFAULT_BALL_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        w.FreeGroup(2).ball(8)


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
