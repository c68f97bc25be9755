import json
import random
from itertools import product

import pytest

from qmtop import _kernels, topology

from qmtop.core import (
    InvariantViolation,
    PointMap,
    PointSpace,
    ResidueClasses,
    SequenceSpec,
    SpaceMismatchError,
    Squares,
    Topology,
    members,
    parse_document,
    serialize,
)
from qmtop.topology import (
    check_topology,
    converges_topologically,
    enumerate_preorders,
    enumerate_topologies,
    generate_from_subbase,
    is_continuous,
    is_t0,
    is_t1,
    is_t2,
    minimal_neighborhood,
    separating_pairs,
    topology_documents,
)

from helpers import (
    OPENS_ORACLES,
    brute_minimal_topology,
    family_route_topologies,
    from_opens,
    least_open,
    opens_continuous,
    opens_of,
    sierpinski,
    subbase_closure,
)


def _discrete(n):
    return from_opens(PointSpace(n), range(1 << n))


def _indiscrete(n):
    space = PointSpace(n)
    return from_opens(space, [0, space.full_mask])


def test_check_topology_examples():
    space = PointSpace(2)
    assert check_topology(space, opens_of(sierpinski())) == []
    bad = [space.subset([]), space.subset([0]), space.subset([1])]
    kinds = {v.kind for v in check_topology(space, bad)}
    assert kinds == {"no-full-set", "union-escape"}
    assert check_topology(PointSpace(3), opens_of(_discrete(3))) == []
    with pytest.raises(InvariantViolation, match="mask 0x7 has bits outside the space"):
        check_topology(space, [0b00, 0b01, 0b11, 0b111])
    with pytest.raises(InvariantViolation, match="mask -0x1 has bits outside the space"):
        check_topology(space, [-1, 0b00, 0b11])


def test_generate_from_subbase_examples():
    space = PointSpace(3)
    sub = [space.subset([0, 2]), space.subset([1, 2])]
    t = generate_from_subbase(space, sub)
    assert set(opens_of(t)) == {0b000, 0b100, 0b101, 0b110, 0b111}
    assert set(opens_of(t)) == brute_minimal_topology(space, sub)

    assert generate_from_subbase(space, []) == _indiscrete(3)
    singletons = [space.subset([p]) for p in range(3)]
    assert generate_from_subbase(space, singletons) == _discrete(3)


def _subbase_agrees(space, masks, brute=False):
    got = frozenset(opens_of(generate_from_subbase(space, [space.subset(
        [p for p in space.points() if m >> p & 1]) for m in masks])))
    assert got == subbase_closure(space, masks), (space.n, masks)
    if brute:
        assert got == brute_minimal_topology(space, masks), (space.n, masks)


def test_generate_from_subbase_matches_oracles_on_every_small_subbase():
    for n in (1, 2, 3):
        space = PointSpace(n)
        subsets = 1 << n
        for chosen in range(1 << subsets):
            _subbase_agrees(space, [m for m in range(subsets) if chosen >> m & 1], brute=True)


def test_generate_from_subbase_matches_oracles_on_random_subbases():
    rng = random.Random(20170817)
    for k in range(3000):
        n = 4 + k % 4
        space = PointSpace(n)
        masks = [rng.randrange(1 << n) for _ in range(rng.randrange(0, n + 1))]
        _subbase_agrees(space, masks, brute=n == 4)


def test_neighborhood_rows_match_the_per_open_intersection():
    """The rows read off the binary digits of all masks at once equal the
    intersection, open by open, of the masks holding each point; a mask with
    bits outside the space reads as its part inside it on both routes."""
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.choice((1, 2, 3, 5, 8, 12, 16))
        space = PointSpace(n)
        masks = [rng.randint(-(2 << n), 2 << n) for _ in range(rng.randint(0, 9))]
        rows = [space.full_mask] * n
        for m in masks:
            for x in range(n):
                if m >> x & 1:
                    rows[x] &= m
        assert topology._neighborhood_rows(space, masks) == rows


def test_check_topology_shortcut_matches_pair_scan():
    for n in (1, 2, 3):
        space = PointSpace(n)
        subsets = 1 << n
        for fam in range(1 << subsets):
            masks = [m for m in range(subsets) if fam >> m & 1]
            family = [space.subset([p for p in range(n) if m >> p & 1]) for m in masks]
            assert check_topology(space, family) == list(topology._pair_scan(space, masks))


def test_first_closure_failure_lists_only_the_members_it_names(monkeypatch):
    """Every subset of ten points but {0} first fails where {0,1} and {0,2}
    meet in {0}: the validated parse lists the points of those two members,
    not of all 1,023."""
    doc = json.dumps({"kind": "topology", "n": 10,
                      "opens": [members(u) for u in range(1 << 10) if u != 1]})
    listed = []
    monkeypatch.setattr(topology, "members", lambda m: listed.append(m) or members(m))
    with pytest.raises(InvariantViolation) as info:
        parse_document(doc)
    assert str(info.value) == "not a topology: intersection-escape: {0,1}, {0,2}"
    assert len(listed) <= 2


def test_generate_from_subbase_idempotent_on_topologies():
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            assert generate_from_subbase(t.space, opens_of(t)) == t


def test_minimal_neighborhood_examples():
    t = sierpinski()
    assert members(minimal_neighborhood(t, 1)) == [1]
    assert members(minimal_neighborhood(t, 0)) == [0, 1]
    assert members(minimal_neighborhood(_discrete(3), 2)) == [2]


def test_minimal_neighborhood_is_least_open():
    """The row of x is the intersection of the opens holding x, an open
    itself, and the rows list the oracle's opens as their up-sets, on every
    topology with at most four points."""
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(n):
            opens = opens_of(t)
            assert tuple(_kernels.upsets(t.rows)) == opens
            for x in range(n):
                m = minimal_neighborhood(t, x)
                assert m == least_open(t, x) and m in opens and m >> x & 1
    with pytest.raises(InvariantViolation):
        minimal_neighborhood(sierpinski(), 2)


def test_specialization_preorder_examples():
    """A topology is its specialization rows: x is below y iff every open
    holding x holds y."""
    assert sierpinski().rows == (0b11, 0b10)
    assert _discrete(2).rows == (0b01, 0b10)
    assert _indiscrete(2).rows == (0b11, 0b11)


def test_separation_examples():
    t = sierpinski()
    assert (is_t0(t), is_t1(t), is_t2(t)) == (True, False, False)
    for n in (2, 3, 4):
        d = _discrete(n)
        assert is_t0(d) and is_t1(d) and is_t2(d)
    i = _indiscrete(2)
    assert not is_t0(i) and not is_t1(i) and not is_t2(i)


def test_separation_chain_and_finite_t1_is_discrete():
    for n in (1, 2, 3, 4):
        discrete = _discrete(n)
        for t in enumerate_topologies(n):
            t0, t1, t2 = is_t0(t), is_t1(t), is_t2(t)
            assert not t1 or t0
            assert not t2 or t1
            assert t1 == t2 == (t == discrete)


def test_separating_pairs_match_opens_oracles():
    """The packed pair sets equal the opens-scanning definitions on every
    ordered pair of every topology on at most five points, hold no pair
    (x, x), and `is_t*` equal the oracles quantified over the pairs."""
    pairs = 0
    for n in range(1, 6):
        for t in enumerate_topologies(n):
            rows = t.rows
            packed = {axiom: separating_pairs(rows, axiom) for axiom in OPENS_ORACLES}
            verdicts = {axiom: True for axiom in OPENS_ORACLES}
            for axiom in OPENS_ORACLES:
                assert packed[axiom] >> n * n == 0
                assert all(not packed[axiom] >> x * n + x & 1 for x in range(n))
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    pairs += 1
                    for axiom, oracle in OPENS_ORACLES.items():
                        got = bool(packed[axiom] >> x * n + y & 1)
                        assert got == oracle(t, x, y), (t.rows, axiom, x, y)
                        verdicts[axiom] &= got
            assert (is_t0(t), is_t1(t), is_t2(t)) == \
                (verdicts["t0"], verdicts["t1"], verdicts["t2"])
    assert pairs == 143_282
    with pytest.raises(ValueError):
        separating_pairs((1, 2), "t3")


def test_is_continuous_examples():
    t = sierpinski()
    ident = PointMap(t.space, t.space, (0, 1))
    assert is_continuous(ident, t, t)
    assert not is_continuous(ident, _indiscrete(2), t)
    for c in (0, 1):
        const = PointMap(t.space, t.space, (c, c))
        assert is_continuous(const, _indiscrete(2), t)
    with pytest.raises(SpaceMismatchError):
        is_continuous(PointMap(PointSpace(3), t.space, (0, 0, 1)), t, t)


def test_continuity_identity_and_composition_two_points():
    topologies = list(enumerate_topologies(2))
    space = topologies[0].space
    maps = [PointMap(space, space, (a, b)) for a in range(2) for b in range(2)]
    for t in topologies:
        assert is_continuous(PointMap(space, space, (0, 1)), t, t)
    for ta in topologies:
        for tb in topologies:
            for tc in topologies:
                for f in maps:
                    for g in maps:
                        if is_continuous(f, ta, tb) and is_continuous(g, tb, tc):
                            gf = PointMap(space, space, tuple(g(f(x)) for x in range(2)))
                            assert is_continuous(gf, ta, tc)


def test_is_continuous_matches_the_preimage_definition():
    """Monotonicity of the rows equals "the preimage of every open is open"
    for every map between every pair of topologies on at most three points,
    and on a seeded sample on four and five points."""
    by_size = {n: list(enumerate_topologies(n)) for n in (1, 2, 3)}
    checked = 0
    for nd, nc in product((1, 2, 3), repeat=2):
        dom, cod = PointSpace(nd), PointSpace(nc)
        maps = [PointMap(dom, cod, values) for values in product(range(nc), repeat=nd)]
        for td in by_size[nd]:
            for tc in by_size[nc]:
                for f in maps:
                    checked += 1
                    assert is_continuous(f, td, tc) == opens_continuous(f, td, tc)
    assert checked == sum((len(by_size[a]) * len(by_size[b]) * b ** a)
                          for a in (1, 2, 3) for b in (1, 2, 3))
    rng = random.Random(15)
    larger = {n: list(enumerate_topologies(n)) for n in (4, 5)}
    verdicts = set()
    for _ in range(3000):
        nd, nc = rng.choice((4, 5)), rng.choice((4, 5))
        td, tc = rng.choice(larger[nd]), rng.choice(larger[nc])
        f = PointMap(PointSpace(nd), PointSpace(nc),
                     tuple(rng.randrange(nc) for _ in range(nd)))
        verdict = is_continuous(f, td, tc)
        assert verdict == opens_continuous(f, td, tc)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_converges_topologically_examples():
    t = sierpinski()
    space = t.space
    # constant at 1 converges to both points here: the only neighbourhood
    # of 0 is the whole space
    const1 = SequenceSpec(space, 1)
    assert converges_topologically(const1, t, 1)
    assert converges_topologically(const1, t, 0)
    assert not converges_topologically(SequenceSpec(space, 0), t, 1)
    alternating = SequenceSpec(space, 1, ((ResidueClasses(2, (1,)), 0),))
    assert converges_topologically(alternating, t, 0)
    assert not converges_topologically(alternating, t, 1)
    squares_dip = SequenceSpec(space, 1, ((Squares(), 0),))
    assert not converges_topologically(squares_dip, t, 1)


def test_constant_sequence_converges_everywhere():
    for t in enumerate_topologies(3):
        for x in range(3):
            assert converges_topologically(SequenceSpec(t.space, x), t, x, horizon=500)


def test_enumeration_counts_and_bounds():
    assert [sum(1 for _ in enumerate_topologies(n)) for n in (1, 2, 3)] == [1, 4, 29]
    assert [sum(1 for _ in enumerate_preorders(n)) for n in (1, 2, 3)] == [1, 4, 29]
    with pytest.raises(ValueError):
        list(enumerate_preorders(6))
    with pytest.raises(ValueError):
        list(enumerate_topologies(0))


def test_enumeration_methods_agree():
    for n in (1, 2, 3):
        assert family_route_topologies(n) == list(enumerate_topologies(n))


def test_enumerated_objects_carry_their_documents():
    for n in (1, 2, 3, 4):
        topologies = list(enumerate_topologies(n))
        assert [serialize(t) for t in topologies] == topology_documents(n)
        assert all(serialize(t) == serialize(from_opens(t.space, opens_of(t)))
                   for t in topologies)


def test_alexandrov_and_specialization_are_inverse():
    """The up-sets of a preorder's rows are opens whose least neighbourhoods
    are those rows again, and the opens of every topology are the up-sets of
    its rows."""
    for n in (1, 2, 3):
        preorders = list(enumerate_preorders(n))
        assert [t.rows for t in preorders] == sorted(_kernels.preorder_rows(n))
        for t in preorders:
            assert from_opens(t.space, _kernels.upsets(t.rows)) == t
        for t in family_route_topologies(n):
            assert tuple(_kernels.upsets(t.rows)) == opens_of(t)


def test_five_point_enumeration_count():
    assert sum(1 for _ in enumerate_preorders(5)) == 6942
    assert sum(1 for _ in enumerate_topologies(5)) == 6942
