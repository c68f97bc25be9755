"""The tail engine's exactness claims, checked against direct evaluation.

The random specs below keep rule moduli inside {1,...,6,8,12}, so the lcm
divides 120 and every unbounded type is realised well inside the scan
horizon: squares cover each residue class mod 120 by j <= 346, and the
orbit of 2^e mod 120 is fully inside the cycle from e = 3 with period at
most 4.  Under that bound, "no deviation found by the horizon" and
"deviation set bounded" coincide, which makes the brute-force scan a
two-sided oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qmtop import _tails
from qmtop.core import (
    Complement,
    FiniteSet,
    PointSpace,
    PowersOfTwo,
    ResidueClasses,
    SequenceSpec,
    Squares,
    UnionSet,
    members,
)

from helpers import tail_types_by_type, value_at

HORIZON = 100_000

_moduli = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


def _residues(mod):
    return st.sets(st.integers(0, mod - 1), max_size=mod).map(tuple)


_simple = st.one_of(
    st.builds(FiniteSet, st.lists(st.integers(0, 40), max_size=4).map(tuple)),
    _moduli.flatmap(lambda m: st.builds(ResidueClasses, st.just(m), _residues(m))),
    st.just(Squares()),
    st.just(PowersOfTwo()),
)

_descriptor = st.one_of(
    _simple,
    st.builds(Complement, _simple),
    st.builds(UnionSet, st.tuples(_simple, _simple)),
    st.builds(Complement, st.builds(UnionSet, st.tuples(_simple, _simple))),
    st.builds(UnionSet, st.tuples(st.builds(Complement, _simple), _simple)),
)


def values(seq, kmax) -> bytes:
    """Byte k is the value at position k (byte 0 is unused), decoded from
    the per-point masks of `evaluate_range` with one bytes pass per point.

    Each mask is written as binary digits, lowest bit first, and the digits
    are translated to the point or zero; the masks must partition 1..kmax.
    """
    masks = _tails.evaluate_range(seq, kmax)
    assert len(masks) == seq.space.n
    assert sum(m.bit_count() for m in masks) == kmax
    covered = decoded = 0
    for point, m in enumerate(masks):
        covered |= m
        digits = format(m, f"0{kmax + 1}b")[::-1].encode()
        decoded |= int.from_bytes(digits.translate(bytes.maketrans(b"01", bytes([0, point]))),
                                  "little")
    assert covered == (2 << kmax) - 2
    return decoded.to_bytes(kmax + 1, "little")


def recurrent_values(seq) -> set[int]:
    """Values taken at unboundedly many positions."""
    return set(members(_tails.tail_types(seq).recurrent))


@st.composite
def specs(draw):
    space = PointSpace(3)
    count = draw(st.integers(0, 3))
    rules = tuple((draw(_descriptor), draw(st.integers(0, 2))) for _ in range(count))
    return SequenceSpec(space, draw(st.integers(0, 2)), rules)


@settings(max_examples=60, deadline=None)
@given(specs(), st.integers(1, 6))
def test_eventually_in_matches_brute_force(seq, good_mask):
    tails = _tails.tail_types(seq)
    decided = not tails.recurrent & ~good_mask
    settle = tails.settle
    assert settle < HORIZON
    vals = values(seq, HORIZON)
    bad_beyond = [k for k in range(settle + 1, HORIZON + 1)
                  if not good_mask >> vals[k] & 1]
    assert decided == (not bad_beyond)


@settings(max_examples=60, deadline=None)
@given(specs())
def test_recurrent_values_match_window(seq):
    settle = _tails.tail_types(seq).settle
    window = frozenset(values(seq, HORIZON)[settle + 1:])
    assert window == recurrent_values(seq)


@settings(max_examples=40, deadline=None)
@given(specs())
def test_vectorised_evaluation_matches_scalar(seq):
    assert list(values(seq, 300)[1:]) == [value_at(seq, k) for k in range(1, 301)]


@pytest.mark.parametrize("mod", [250, 300, 10**12, 10**30])
def test_vectorised_evaluation_with_large_moduli(mod):
    residues = (0, 5, 249, mod - 1)
    seq = SequenceSpec(PointSpace(2), 0, ((ResidueClasses(mod, residues), 1),))
    assert list(values(seq, 300)[1:]) == [value_at(seq, k) for k in range(1, 301)]


@pytest.mark.parametrize("mod", [7, 999_983, 10**6, 10**6 + 1])
def test_evaluation_at_the_top_horizon(mod):
    # Periods just below, at and above the scan length, next to squares and
    # powers of two; positions are sampled across the whole scan.
    seq = SequenceSpec(PointSpace(4), 0, (
        (ResidueClasses(mod, (0, 3, mod - 1)), 1),
        (Squares(), 2),
        (UnionSet((PowersOfTwo(), FiniteSet((10**6 - 1, 10**20)))), 3),
    ))
    top = 10**6
    vals = values(seq, top)
    sample = [*range(1, top + 1, 997), *range(top - 50, top + 1), 4, 8, 2**19, 999_999]
    assert [vals[k] for k in sample] == [value_at(seq, k) for k in sample]
    assert vals.count(2) == sum(1 for j in range(1, 1001) if value_at(seq, j * j) == 2)


def test_squares_deviation_is_not_eventual():
    space = PointSpace(2)
    seq = SequenceSpec(space, 1, ((Squares(), 0),))
    assert recurrent_values(seq) == {0, 1}


def test_finite_deviation_is_eventual():
    space = PointSpace(2)
    seq = SequenceSpec(space, 1, ((FiniteSet((2, 9, 31)), 0),))
    assert _tails.tail_types(seq).settle >= 31
    assert recurrent_values(seq) == {1}


def test_powers_of_two_square_interaction():
    # rule 2 fires exactly at the square powers of two, i.e. the powers of
    # four, and those positions are unbounded
    space = PointSpace(2)
    seq = SequenceSpec(space, 1, ((Complement(Squares()), 1), (PowersOfTwo(), 0)))
    assert 0 in recurrent_values(seq)


def _intersection(a, b):
    return Complement(UnionSet((Complement(a), Complement(b))))


def test_tail_types_cache_tells_field_free_rules_apart():
    """`Squares()` and `PowersOfTwo()` have no fields and equal hashes, so
    only their classes keep the cached tail types of the two apart.  No
    square is 2 mod 3, but every odd power of two is, so the rule fires
    unboundedly often only in the second sequence."""
    space = PointSpace(2)
    two_mod_three = ResidueClasses(3, (2,))
    squares = SequenceSpec(space, 0, ((_intersection(two_mod_three, Squares()), 1),))
    powers = SequenceSpec(space, 0, ((_intersection(two_mod_three, PowersOfTwo()), 1),))
    assert hash(squares) == hash(powers) and squares != powers
    assert _tails.tail_types(squares).recurrent == 0b01
    assert _tails.tail_types(powers).recurrent == 0b11
    assert _tails.tail_types(squares).recurrent == 0b01


@settings(max_examples=60, deadline=None)
@given(specs())
def test_tail_types_match_the_per_type_oracle(seq):
    t = _tails.tail_types(seq)
    assert (t.modulus, t.settle, t.recurrent) == tail_types_by_type(seq)


# Moduli dividing 720, so the per-type oracle's 4 * lcm types stay few.
_nested = st.recursive(
    _simple | st.sampled_from([9, 10, 15, 16]).flatmap(
        lambda m: st.builds(ResidueClasses, st.just(m), _residues(m))),
    lambda inner: st.builds(Complement, inner) | st.builds(
        UnionSet, st.lists(inner, min_size=1, max_size=3).map(tuple)),
    max_leaves=6)


@st.composite
def nested_specs(draw):
    n = draw(st.integers(1, 5))
    rules = tuple((draw(_nested), draw(st.integers(0, n - 1)))
                  for _ in range(draw(st.integers(0, 3))))
    return SequenceSpec(PointSpace(n), draw(st.integers(0, n - 1)), rules)


@settings(max_examples=60, deadline=None)
@given(nested_specs())
def test_tail_types_of_nested_complements_and_unions_match_the_oracle(seq):
    t = _tails.tail_types(seq)
    assert (t.modulus, t.settle, t.recurrent) == tail_types_by_type(seq)


def test_tail_types_of_intersections_match_the_oracle():
    """Each pair of the four kinds of set intersected, and the intersection
    complemented, as a rule ahead of a residue-class rule."""
    kinds = [FiniteSet((3, 16)), ResidueClasses(5, (1, 4)), Squares(), PowersOfTwo()]
    for a in kinds:
        for b in kinds:
            for ds in (_intersection(a, b), Complement(_intersection(a, b))):
                seq = SequenceSpec(PointSpace(3), 0, ((ds, 1), (ResidueClasses(6, (4,)), 2)))
                t = _tails.tail_types(seq)
                assert (t.modulus, t.settle, t.recurrent) == tail_types_by_type(seq), ds


def test_modulus_cap_refuses():
    space = PointSpace(2)
    seq = SequenceSpec(space, 0, (
        (ResidueClasses(9973, (0,)), 1),
        (ResidueClasses(9967, (0,)), 1),
    ))
    with pytest.raises(_tails.TailAnalysisError):
        _tails.tail_types(seq)


def test_consistency_guard_accepts_true_verdicts():
    space = PointSpace(2)
    seq = SequenceSpec(space, 0, ((FiniteSet((5,)), 1),))
    _tails.assert_tail_consistent(seq, 0b01, True, 1000)


def test_consistency_guard_reports_the_first_excursion():
    # Squares leave the mask unboundedly often; the first one past the
    # settle bound (7) is position 9.
    seq = SequenceSpec(PointSpace(2), 0, ((FiniteSet((7,)), 0), (Squares(), 1)))
    assert _tails.tail_types(seq).settle == 7
    with pytest.raises(AssertionError, match="position 9 takes value 1 outside mask 0x1$"):
        _tails.assert_tail_consistent(seq, 0b01, True, 1000)
    _tails.assert_tail_consistent(seq, 0b01, True, 8)
    _tails.assert_tail_consistent(seq, 0b01, False, 1000)
