import random
from itertools import permutations, product

import pytest

from qmtop.core import (
    PointSpace,
    PositiveSet,
    QuasiFamily,
    ValueSemigroup,
)
from qmtop import continuity
from qmtop.continuity import check_positives, check_value_semigroup
from qmtop.qmetric import to_topology
from qmtop.representation import canonical_family
from qmtop.topology import enumerate_topologies

import helpers
from helpers import (
    ContinuitySpace,
    ball_r,
    check_continuity_space,
    index_rows,
    leq,
    lift_quasifamily,
    opens_of,
    semigroup_zero_one_pow,
    sierpinski,
    small_index_families,
    table_check_positives,
    table_check_value_semigroup,
    to_topology_kopperman,
)


def test_two_element_max_semigroup_is_valid():
    sg = ValueSemigroup(("0", "1"), ((0, 1), (1, 1)), zero=0, infinity=1)
    assert check_value_semigroup(sg) == []


def test_xor_semigroup_fails_absorbing():
    sg = ValueSemigroup(("0", "1"), ((0, 1), (1, 0)), zero=0, infinity=1)
    axioms = {v.axiom for v in check_value_semigroup(sg)}
    assert "absorbing" in axioms


def test_pointwise_max_cube_is_valid_up_to_three_coordinates():
    for k in (1, 2, 3):
        sg = semigroup_zero_one_pow(k)
        assert check_value_semigroup(sg) == []
        # halving is the identity under an idempotent addition
        for a in range(sg.size):
            halves = [b for b in range(sg.size) if sg.add[b][b] == a]
            assert halves == [a]
        # derived order is the bitwise one
        for a in range(sg.size):
            for b in range(sg.size):
                assert leq(sg, a, b) == (a & ~b == 0)


def test_positives_examples():
    for k in (1, 2, 3):
        sg = semigroup_zero_one_pow(k)
        assert check_positives(PositiveSet(sg, tuple(range(sg.size)))) == []
    sg1 = semigroup_zero_one_pow(1)
    bad = check_positives(PositiveSet(sg1, (1,)))
    assert [(v.axiom, v.witness) for v in bad] == [("order-separation", (1, 0))]
    empty = check_positives(PositiveSet(sg1, ()))
    assert any(v.axiom == "order-separation" for v in empty)


def test_lift_examples():
    cf = canonical_family(sierpinski())
    cs = lift_quasifamily(cf)
    assert cs.semigroup.size == 8
    assert check_continuity_space(cs) == []

    single = lift_quasifamily(
        QuasiFamily(PointSpace(3), ("i0",), ((0b111,) * 3,)))
    assert single.semigroup.size == 2
    assert all(e == single.semigroup.zero for row in single.dist for e in row)

    discrete3 = next(t for t in enumerate_topologies(3) if len(opens_of(t)) == 8)
    with pytest.raises(ValueError):
        lift_quasifamily(canonical_family(discrete3))


def test_lift_refuses_a_carrier_above_the_semigroup_bound(monkeypatch):
    """Seven indices lift to 2^7 = 128 elements, past `SEMIGROUP_MAX_SIZE`;
    the lift refuses them before building the carrier's table."""
    monkeypatch.setattr(helpers, "semigroup_zero_one_pow",
                        lambda k: pytest.fail("the carrier was built"))
    seven = QuasiFamily(PointSpace(2), tuple(f"i{k}" for k in range(7)), ((0b11, 0b11),) * 7)
    with pytest.raises(ValueError, match=r"^carrier 2\^7 larger than 64$"):
        lift_quasifamily(seven)


def test_lift_refuses_a_family_with_no_index(monkeypatch):
    """{0,1}^0 has one element, so its zero is its infinity: a family with
    no index lifts to no value semigroup, and is refused before the carrier
    is built."""
    monkeypatch.setattr(helpers, "semigroup_zero_one_pow",
                        lambda k: pytest.fail("the carrier was built"))
    with pytest.raises(ValueError, match=r"^carrier 2\^0 has zero equal to infinity$"):
        lift_quasifamily(QuasiFamily(PointSpace(2), (), ()))


def _seeded_semigroups(rng, count):
    """Random tables, chains under max and {0,1}^k under OR, of 1..16
    elements, a third of them with a few entries perturbed."""
    for _ in range(count):
        shape = rng.choice(["random", "chain", "cube"])
        if shape == "cube":
            sg = semigroup_zero_one_pow(rng.randint(0, 4))
            m, zero, inf = sg.size, sg.zero, sg.infinity
            add = [list(row) for row in sg.add]
        else:
            m = rng.randint(1, 16)
            if shape == "chain":
                add = [[max(a, b) for b in range(m)] for a in range(m)]
                zero, inf = 0, m - 1
            else:
                add = [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
                zero, inf = rng.randrange(m), rng.randrange(m)
        if rng.random() < 1 / 3:
            for _ in range(rng.randint(1, 3)):
                add[rng.randrange(m)][rng.randrange(m)] = rng.randrange(m)
        sg = ValueSemigroup(tuple(map(str, range(m))), tuple(map(tuple, add)), zero, inf)
        yield sg, PositiveSet(sg, tuple(r for r in range(m) if rng.random() < 0.5))


def test_mask_order_matches_the_table_oracle():
    """The row-mask order, meets and checkers give the witness lists of the
    bool-table route, in its order, on seeded tables of every shape; the
    mask order is the brute-force order on those tables, on addition mod 2
    and on the {0,1}^k carriers up to the 64-element bound.  Most of these
    tables are no value semigroup, and only over one can closure under
    halving fail, so the oracle's halving witnesses are left out of the
    comparison (`test_halving_closure_cannot_fail`)."""
    rng = random.Random(29)
    seeded = list(_seeded_semigroups(rng, 300))
    failing = set()
    for sg, positives in seeded:
        found = check_value_semigroup(sg) + check_positives(positives)
        oracle = [v for v in table_check_positives(positives) if v.axiom != "halving-closed"]
        assert found == table_check_value_semigroup(sg) + oracle
        failing |= {v.axiom for v in found}
    assert len(failing) == 12
    xor = ValueSemigroup(("0", "1"), ((0, 1), (1, 0)), zero=0, infinity=1)
    carriers = [sg for sg, _ in seeded] + [xor] + [semigroup_zero_one_pow(k) for k in range(7)]
    for sg in carriers:
        up, down = continuity._order(sg)
        for a in range(sg.size):
            for b in range(sg.size):
                assert (up[a] >> b & 1, down[b] >> a & 1) == (leq(sg, a, b),) * 2


def _relabelled(m: int, op, perm) -> ValueSemigroup:
    """The carrier 0..m-1 under op, element e renamed perm[e]."""
    add = [[0] * m for _ in range(m)]
    for a, b in product(range(m), repeat=2):
        add[perm[a]][perm[b]] = perm[op(a, b)]
    return ValueSemigroup(tuple(map(str, range(m))), tuple(map(tuple, add)),
                          perm[0], perm[m - 1])


def _small_value_semigroups(m: int):
    """Every value semigroup on 0..m-1 with zero 0 and infinity m-1."""
    inner = [(a, b) for a in range(1, m - 1) for b in range(a, m - 1)]
    for sums in product(range(m), repeat=len(inner)):
        add = [[max(a, b) if 0 in (a, b) or m - 1 in (a, b) else 0 for b in range(m)]
               for a in range(m)]
        for (a, b), total in zip(inner, sums):
            add[a][b] = add[b][a] = total
        sg = ValueSemigroup(tuple(map(str, range(m))), tuple(map(tuple, add)), 0, m - 1)
        if not check_value_semigroup(sg):
            yield sg


def test_halving_closure_cannot_fail():
    """Over a value semigroup every element is its own half (the proof is in
    `check_positives`), so no set of positives breaks closure under halving,
    and the checker, which leaves that axiom out, gives the oracle's list.
    Checked for every set of positives of every value semigroup on 2 to 4
    elements, and of every carrier the benchmark's documents use: the chain
    under max on 2 to 5 elements and {0,1}^k under OR for k = 1, 2, under
    every relabelling (a seeded 12 of the 120 on 5 elements); and for the
    sets of positives the bare CLI smoke test checks on {0,1}^6 and on the
    16-element chain."""
    carriers = [sg for m in (2, 3, 4) for sg in _small_value_semigroups(m)]
    assert len(carriers) == 5
    rng = random.Random(33)
    for m, op in [*((m, max) for m in (2, 3, 4, 5)), *((1 << k, int.__or__) for k in (1, 2))]:
        perms = list(permutations(range(m)))
        carriers += [_relabelled(m, op, perm)
                     for perm in (perms if m < 5 else rng.sample(perms, 12))]
    cases = [PositiveSet(sg, tuple(r for r in range(sg.size) if chosen >> r & 1))
             for sg in carriers for chosen in range(1 << sg.size)]
    chain16 = _relabelled(16, max, range(16))
    cases += [PositiveSet(semigroup_zero_one_pow(6), tuple(range(64))),
              PositiveSet(chain16, (2, 9)), PositiveSet(chain16, tuple(range(16)))]
    for positives in cases:
        assert check_value_semigroup(positives.semigroup) == []
        oracle = table_check_positives(positives)
        assert "halving-closed" not in {v.axiom for v in oracle}
        assert check_positives(positives) == oracle


def test_ball_r_examples():
    cf = canonical_family(sierpinski())
    cs = lift_quasifamily(cf)
    for x in range(2):
        # radius zero: the all-coordinates ball
        expect = cf.space.full_mask
        for rows in cf.rows:
            expect &= rows[x]
        assert ball_r(cs, x, 0) == expect
        # radius infinity: everything
        assert ball_r(cs, x, cs.semigroup.infinity) == cf.space.full_mask
        # zeroing one coordinate recovers that coordinate's ball exactly
        j = cf.indices.index("[1]")
        radius = cs.semigroup.infinity & ~(1 << j)
        assert ball_r(cs, x, radius) == index_rows(cf, "[1]")[x]
    restricted = ContinuitySpace(cs.space, cs.semigroup,
                                 PositiveSet(cs.semigroup, (0,)), cs.dist)
    with pytest.raises(ValueError):
        ball_r(restricted, 0, 3)


def test_kopperman_topology_examples():
    cf = canonical_family(sierpinski())
    assert to_topology_kopperman(lift_quasifamily(cf)) == sierpinski()

    sg = semigroup_zero_one_pow(1)
    zero_dist = ContinuitySpace(PointSpace(3), sg, PositiveSet(sg, (0, 1)),
                                tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    assert opens_of(to_topology_kopperman(zero_dist)) == (0, 0b111)


def test_kopperman_reproduces_every_source_topology():
    # indices for the empty and full sets have only full zero rows and never
    # change the generated topology, so pruning them keeps every canonical
    # family on three points within the six-index lift bound
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            cf = canonical_family(t)
            keep = [k for k, u in enumerate(opens_of(t))
                    if u not in (0, t.space.full_mask)]
            pruned = (QuasiFamily(cf.space, tuple(cf.indices[k] for k in keep),
                                  tuple(cf.rows[k] for k in keep))
                      if keep else
                      QuasiFamily(cf.space, ("i0",), ((cf.space.full_mask,) * n,)))
            assert to_topology_kopperman(lift_quasifamily(pruned)) == t


def test_kopperman_one_index_route_on_every_small_topology():
    # d(x, y) = 0 iff y is in the least open neighbourhood of x: one index
    # whose lift is the two-element semigroup
    for n in (1, 2, 3, 4, 5):
        for t in enumerate_topologies(n):
            q = QuasiFamily(t.space, ("k",), (t.rows,))
            assert to_topology_kopperman(lift_quasifamily(q)) == t


def test_kopperman_agrees_with_family_topology():
    for n in (1, 2):
        for q in small_index_families(n, 2):
            assert to_topology_kopperman(lift_quasifamily(q)) == to_topology(q)


def test_continuity_space_axiom_checker():
    sg = semigroup_zero_one_pow(1)
    bad = ContinuitySpace(PointSpace(2), sg, PositiveSet(sg, (0, 1)),
                          ((1, 0), (0, 0)))
    axioms = {v.axiom for v in check_continuity_space(bad)}
    assert "zero-self-distance" in axioms


def test_violations_replay_against_their_axiom():
    xor = ValueSemigroup(("0", "1"), ((0, 1), (1, 0)), zero=0, infinity=1)
    for v in check_value_semigroup(xor):
        if v.axiom == "absorbing":
            (a,) = v.witness
            assert xor.add[xor.infinity][a] != xor.infinity
        elif v.axiom == "antisymmetry":
            a, b = v.witness
            assert leq(xor, a, b) and leq(xor, b, a) and a != b
        elif v.axiom == "unique-halving":
            a, halves = v.witness[0], v.witness[1:]
            assert [b for b in range(xor.size) if xor.add[b][b] == a] == list(halves)
            assert len(halves) != 1
    sg1 = semigroup_zero_one_pow(1)
    for v in check_positives(PositiveSet(sg1, (1,))):
        assert v.axiom == "order-separation"
        a, b = v.witness
        assert all(leq(sg1, a, sg1.add[b][r]) for r in (1,)) and not leq(sg1, a, b)
