"""The tail engine's exactness claims, checked against direct evaluation.

The random specs below keep rule moduli inside {1,...,6,8,12}, so the lcm
divides 120 and every unbounded type is realised well inside the scan
horizon: squares cover each residue class mod 120 by j <= 346, and the
orbit of 2^e mod 120 is fully inside the cycle from e = 3 with period at
most 4.  Under that bound, "no deviation found by the horizon" and
"deviation set bounded" coincide, which makes the brute-force scan a
two-sided oracle.
"""

import numpy as np
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
)

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


@st.composite
def specs(draw):
    space = PointSpace(3)
    count = draw(st.integers(0, 3))
    rules = tuple((draw(_descriptor), draw(st.integers(0, 2))) for _ in range(count))
    return SequenceSpec(space, draw(st.integers(0, 2)), rules)


@settings(max_examples=60, deadline=None)
@given(specs(), st.integers(1, 6))
def test_eventually_in_matches_brute_force(seq, good_mask):
    decided = _tails.eventually_in(seq, good_mask)
    settle = _tails.settle_bound(seq)
    assert settle < HORIZON
    vals = _tails.evaluate_range(seq, HORIZON)
    bad_beyond = [k for k in range(settle + 1, HORIZON + 1)
                  if not good_mask >> vals[k - 1] & 1]
    assert decided == (not bad_beyond)


@settings(max_examples=60, deadline=None)
@given(specs())
def test_recurrent_values_match_window(seq):
    settle = _tails.settle_bound(seq)
    vals = _tails.evaluate_range(seq, HORIZON)
    window = frozenset(int(v) for v in np.unique(vals[settle:]))
    assert window == _tails.recurrent_values(seq)


@settings(max_examples=40, deadline=None)
@given(specs())
def test_vectorised_evaluation_matches_scalar(seq):
    vals = _tails.evaluate_range(seq, 300)
    assert [int(v) for v in vals] == [seq.value_at(k) for k in range(1, 301)]


@pytest.mark.parametrize("mod", [250, 300, 10**12, 10**30])
def test_vectorised_evaluation_with_large_moduli(mod):
    residues = (0, 5, 249, mod - 1)
    seq = SequenceSpec(PointSpace(2), 0, ((ResidueClasses(mod, residues), 1),))
    vals = _tails.evaluate_range(seq, 300)
    assert [int(v) for v in vals] == [seq.value_at(k) for k in range(1, 301)]


def test_squares_deviation_is_not_eventual():
    space = PointSpace(2)
    seq = SequenceSpec(space, 1, ((Squares(), 0),))
    assert not _tails.eventually_in(seq, 0b10)
    assert _tails.eventually_in(seq, 0b11)
    assert _tails.recurrent_values(seq) == {0, 1}


def test_finite_deviation_is_eventual():
    space = PointSpace(2)
    seq = SequenceSpec(space, 1, ((FiniteSet((2, 9, 31)), 0),))
    assert _tails.eventually_in(seq, 0b10)
    assert _tails.settle_bound(seq) >= 31
    assert _tails.recurrent_values(seq) == {1}


def test_powers_of_two_square_interaction():
    # rule 2 fires exactly at the square powers of two, i.e. the powers of
    # four, and those positions are unbounded
    space = PointSpace(2)
    seq = SequenceSpec(space, 1, ((Complement(Squares()), 1), (PowersOfTwo(), 0)))
    assert not _tails.eventually_in(seq, 0b10)
    assert 0 in _tails.recurrent_values(seq)


def test_modulus_cap_refuses():
    space = PointSpace(2)
    seq = SequenceSpec(space, 0, (
        (ResidueClasses(9973, (0,)), 1),
        (ResidueClasses(9967, (0,)), 1),
    ))
    with pytest.raises(_tails.TailAnalysisError):
        _tails.eventually_in(seq, 0b01)


def test_consistency_guard_accepts_true_verdicts():
    space = PointSpace(2)
    seq = SequenceSpec(space, 0, ((FiniteSet((5,)), 1),))
    _tails.assert_tail_consistent(seq, 0b01, True, 1000)
