import random
from fractions import Fraction

import pytest

from qmtop import qmetric
from qmtop.core import (
    Complement,
    DirectedNet,
    FiniteSet,
    PointSpace,
    PowersOfTwo,
    QuasiFamily,
    ResidueClasses,
    SequenceSpec,
    Squares,
    UnionSet,
    members,
    parse_document,
)
from qmtop.qmetric import (
    PREDICATES,
    check_quasifamily,
    converges_topologically,
    is_right_cauchy,
    left_converges,
    natural_density,
    product_converges,
    predicate_pairs,
    right_converges,
    sep_metric,
    separation_pair,
    stat_converges,
    to_topology,
)
from qmtop.representation import canonical_family
from qmtop.topology import (
    enumerate_preorders,
    enumerate_topologies,
    is_t2,
)

from helpers import (
    OPENS_ORACLES,
    PointMap,
    all_eventually_periodic,
    contains,
    density_nf,
    distance_matrices,
    eventually_periodic,
    from_opens,
    index_rows,
    matrix_check_quasifamily,
    matrix_family,
    matrix_sep_pair,
    metric_continuous_at,
    net_convergence_disagreements,
    normal_form_density,
    opens_of,
    preorder_family,
    sierpinski,
    small_index_families,
    value_at,
)


WITNESS = matrix_family(3, [[0, 1, 0], [1, 0, 0], [1, 1, 0]])  # zero-relation {(0,2),(1,2)}


def test_check_quasifamily_examples():
    assert check_quasifamily(matrix_family(2, [[0, 1], [0, 0]])) == []
    # a nonzero diagonal also breaks the triangle through the broken point;
    # the reflexivity violation must be among the reports with its witness
    bad_diag = check_quasifamily(matrix_family(2, [[1, 0], [0, 0]]))
    assert ("nonzero-self-distance", (0,)) in [(v.kind, v.points) for v in bad_diag]
    # zero-relation {(0,1),(1,2)} without (0,2)
    tri = check_quasifamily(matrix_family(3, [[0, 0, 1], [1, 0, 0], [1, 1, 0]]))
    assert [(v.kind, v.points) for v in tri] == [("triangle", (0, 1, 2))]


def _all_matrices(n):
    """Every {0,1} matrix on n points."""
    for bits in range(1 << n * n):
        yield [[bits >> (x * n + y) & 1 for y in range(n)] for x in range(n)]


def test_check_quasifamily_matches_matrix_loop():
    """The row test lists the same violations, in the same order, as the
    x/y/z loop over the matrices: every matrix on up to three points, and
    every two-index family on up to two points (labels out of order, so the
    document order of the indices shows)."""
    def listed(q):
        return [(v.kind, v.index, v.points) for v in check_quasifamily(q)]

    for n in (1, 2, 3):
        for m in _all_matrices(n):
            assert listed(matrix_family(n, m)) == matrix_check_quasifamily(("i0",), [m])
    for n in (1, 2):
        for a in _all_matrices(n):
            for b in _all_matrices(n):
                q = matrix_family(n, a, b, labels=("b", "a"))
                assert listed(q) == matrix_check_quasifamily(("b", "a"), [a, b])


def _canonical_matrices(t):
    """d_U per open, straight from the opens."""
    n = t.space.n
    return [[[1 if u >> x & 1 and not u >> y & 1 else 0 for y in range(n)] for x in range(n)]
            for u in opens_of(t)]


def test_separation_rows_match_matrix_scan():
    """Every predicate of the table at every ordered pair reads the same off
    (meet, sym) as the per-pair scan: over the matrices for a metric one,
    over the opens of the generated topology for a direct axiom.  All
    families of one to three preorder indices on up to three points, a
    seeded sample of such families on four points, and the canonical family
    of every topology on up to four points."""
    families = [q for n in (1, 2, 3) for q in small_index_families(n, 3)]
    rng, preorders = random.Random(3), [t.rows for t in enumerate_preorders(4)]
    for _ in range(100):
        count = rng.randint(1, 3)
        families.append(QuasiFamily(PointSpace(4), tuple(f"i{k}" for k in range(count)),
                                    tuple(rng.choice(preorders) for _ in range(count))))
    cases = [(q, distance_matrices(q)) for q in families]
    cases += [(canonical_family(t), _canonical_matrices(t))
              for n in (1, 2, 3, 4) for t in enumerate_topologies(n)]
    for q, mats in cases:
        n = q.space.n
        t, meet_sym = to_topology(q), separation_pair(n, q.rows)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        for name in PREDICATES:
            if name in OPENS_ORACLES:
                expected = [OPENS_ORACLES[name](t, x, y) for x, y in pairs]
            else:
                expected = [matrix_sep_pair(mats, name, x, y) for x, y in pairs]
            packed = sum(1 << x * n + y for (x, y), e in zip(pairs, expected) if e)
            assert predicate_pairs(name, *meet_sym) == packed
            assert sep_metric(q, name) == all(expected)


def test_ball_examples():
    cf = canonical_family(sierpinski())
    assert members(index_rows(cf, "[1]")[1]) == [1]
    assert members(index_rows(cf, "[1]")[0]) == [0, 1]
    assert "[0]" not in cf.indices
    for q in small_index_families(3, 1):
        for rows in q.rows:
            for x in range(3):
                assert rows[x] >> x & 1


def test_to_topology_examples():
    t = to_topology(WITNESS)
    assert set(opens_of(t)) == {0b000, 0b100, 0b101, 0b110, 0b111}

    zero = matrix_family(3, [[0, 0, 0]] * 3)
    assert opens_of(to_topology(zero)) == (0, 0b111)

    discrete = from_opens(PointSpace(2), range(4))
    assert to_topology(canonical_family(discrete)) == discrete


def test_balls_are_open_and_generate():
    # every ball must be open in the generated topology, and the balls
    # together must generate it as a subbase
    for n in (2, 3):
        for q in small_index_families(n, 2 if n == 2 else 1):
            t = to_topology(q)
            opens = set(opens_of(t))
            for rows in q.rows:
                for x in range(n):
                    assert rows[x] in opens


def test_single_index_family_matches_alexandrov():
    for n in (1, 2, 3):
        for t in enumerate_preorders(n):
            assert to_topology(preorder_family(t)) == t


def test_right_convergence_examples():
    cf = canonical_family(sierpinski())
    space = cf.space
    const = SequenceSpec(space, 0)
    assert right_converges(const, cf, 0)
    alternating = SequenceSpec(space, 1, ((ResidueClasses(2, (1,)), 0),))
    assert right_converges(alternating, cf, 0)
    assert not right_converges(alternating, cf, 1)


def test_left_convergence_examples():
    cf = canonical_family(sierpinski())
    space = cf.space
    assert left_converges(SequenceSpec(space, 1), cf, 1)
    alternating = SequenceSpec(space, 1, ((ResidueClasses(2, (1,)), 0),))
    assert left_converges(alternating, cf, 1)
    # d(1, 0) = 1 in this family, so square-position excursions to 1 block
    # left convergence to 0
    q = matrix_family(2, [[0, 0], [1, 0]])
    squares_up = SequenceSpec(space, 0, ((Squares(), 1),))
    assert not left_converges(squares_up, q, 0)


def test_right_cauchy_examples():
    space = PointSpace(2)
    eventually_const = SequenceSpec(space, 1, ((FiniteSet((1, 2, 3)), 0),))
    discrete_like = matrix_family(2, [[0, 1], [1, 0]])
    assert is_right_cauchy(eventually_const, discrete_like)
    alternating = SequenceSpec(space, 1, ((ResidueClasses(2, (1,)), 0),))
    assert not is_right_cauchy(alternating, discrete_like)
    assert is_right_cauchy(alternating, matrix_family(2, [[0, 0], [0, 0]]))


def test_net_convergence():
    cf = canonical_family(sierpinski())
    net = parse_document(
        '{"kind":"net","elements":["a","b"],"order":[[1,1],[0,1]],"assignment":[0,1],"n":2}')
    # the net is eventually the point 1
    assert right_converges(net, cf, 1)
    assert right_converges(net, cf, 0)
    assert left_converges(net, cf, 1)
    assert is_right_cauchy(net, cf)
    swapped = parse_document(
        '{"kind":"net","elements":["a","b"],"order":[[1,1],[0,1]],"assignment":[1,0],"n":2}')
    assert not right_converges(swapped, cf, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_net_convergence_matches_the_elementwise_oracle(n):
    """Statement (1) on nets: right, left and Cauchy verdicts agree with
    the per-index oracles, and right convergence to x is eventual
    membership in x's row of the generated topology (see
    helpers.net_convergence_disagreements for the sweep)."""
    assert net_convergence_disagreements(n) == 0


def test_product_converges_examples():
    cf = canonical_family(sierpinski())
    space = cf.space
    assert product_converges(SequenceSpec(space, 0), cf, 0)
    alternating = SequenceSpec(space, 1, ((ResidueClasses(2, (1,)), 0),))
    assert not product_converges(alternating, cf, 1)
    for target in (0, 1):
        assert product_converges(alternating, cf, target) == \
            right_converges(alternating, cf, target)


def test_product_converges_raises_when_the_routes_disagree(monkeypatch):
    """The per-index route of `right_converges` is the self-check of
    product convergence, on sequences and nets alike."""
    cf = canonical_family(sierpinski())
    net = DirectedNet(cf.space, ("a", "b"), ((1, 1), (0, 1)), (0, 1))
    monkeypatch.setattr(qmetric, "right_converges", lambda s, q, x: False)
    for carrier in (SequenceSpec(cf.space, 1), net):
        with pytest.raises(AssertionError, match="^product and per-coordinate"):
            product_converges(carrier, cf, 1)


def test_convergence_routes_agree_two_points(monkeypatch):
    # full n <= 3 sweep lives in the acceptance suite
    monkeypatch.setattr(qmetric, "CROSS_CHECK_HORIZON", 256)
    for t in enumerate_topologies(2):
        cf = canonical_family(t)
        for seq in all_eventually_periodic(t.space):
            for x in range(2):
                r = right_converges(seq, cf, x)
                assert converges_topologically(seq, t, x) == r
                assert product_converges(seq, cf, x) == r


def test_left_convergence_matches_per_index_definition():
    """A sequence converges on the left to x iff every index puts each value
    of its period at distance 0 from x: every eventually periodic sequence
    with a prefix of at most one term, on every family of one or two
    preorder indices on up to three points."""
    for n in (1, 2, 3):
        space = PointSpace(n)
        points = range(n)
        periods = [(a,) for a in points] + [(a, b) for a in points for b in points]
        sequences = [(eventually_periodic(space, prefix, period), period)
                     for prefix in [()] + [(a,) for a in points] for period in periods]
        for q in small_index_families(n):
            mats = distance_matrices(q)
            for seq, period in sequences:
                for x in points:
                    expected = all(m[v][x] == 0 for m in mats for v in period)
                    assert left_converges(seq, q, x) == expected


def test_metric_continuity_examples():
    cf = canonical_family(sierpinski())
    space = cf.space
    ident = PointMap(space, space, (0, 1))
    for x in range(2):
        assert metric_continuous_at(ident, cf, cf, x)
        assert metric_continuous_at(PointMap(space, space, (1, 1)), cf, cf, x)
    indiscrete_family = matrix_family(2, [[0, 0], [0, 0]])
    assert not metric_continuous_at(ident, indiscrete_family, cf, 1)


def _holds(q, mode, x, y):
    """Whether a separation mode holds at one ordered pair of a family."""
    return bool(predicate_pairs(mode, *separation_pair(q.space.n, q.rows)) >> x * q.space.n + y & 1)


def test_sep_metric_examples():
    cf = canonical_family(sierpinski())
    assert sep_metric(cf, "t0_unordered")
    assert not sep_metric(cf, "t1_amended")
    assert not sep_metric(cf, "literal_r3")

    discrete2 = canonical_family(from_opens(PointSpace(2), range(4)))
    assert not sep_metric(discrete2, "literal_r4")
    assert not sep_metric(discrete2, "literal_r5")

    # the literal condition holds at the pair (0,1) of the witness family
    # with i = j, yet its topology is not T2
    assert _holds(WITNESS, "literal_r5", 0, 1)
    assert not is_t2(to_topology(WITNESS))

    with pytest.raises(ValueError):
        sep_metric(cf, "literal_r6")


def test_literal_r5_is_literal_r4():
    """R5 as stated (indices i and j each separating the pair both ways)
    holds exactly where R4 does, on every one- and two-index family."""
    for n in (1, 2, 3):
        for q in small_index_families(n, 2):
            mats = distance_matrices(q)
            for x in range(n):
                for y in range(n):
                    if x == y:
                        continue
                    stated = any(mi[x][y] == 1 and mi[y][x] == 1
                                 and mj[x][y] == 1 and mj[y][x] == 1
                                 for mi in mats for mj in mats)
                    assert _holds(q, "literal_r5", x, y) == stated
                    assert _holds(q, "literal_r4", x, y) == stated
            assert sep_metric(q, "literal_r5") == sep_metric(q, "literal_r4")


def test_sep_metric_characterizations_small():
    from qmtop.topology import is_t0, is_t1

    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            cf = canonical_family(t)
            assert sep_metric(cf, "t0_unordered") == is_t0(t)
            assert sep_metric(cf, "t1_amended") == is_t1(t)


def test_natural_density_examples():
    assert natural_density(ResidueClasses(3, (0,))).value == Fraction(1, 3)
    sq = natural_density(Squares())
    assert sq.kind == "zero_by_bound" and "isqrt(n)" in sq.bound
    fin = natural_density(FiniteSet((5, 7)))
    assert fin.kind == "exact" and fin.value == 0
    p2 = natural_density(PowersOfTwo())
    assert p2.kind == "zero_by_bound" and "log2" in p2.bound


def test_natural_density_algebra():
    assert natural_density(Complement(ResidueClasses(4, (0, 1)))).value == Fraction(1, 2)
    assert natural_density(Complement(Squares())).value == 1
    # overlapping residue classes resolve exactly through the lcm
    union = UnionSet((ResidueClasses(2, (0,)), ResidueClasses(3, (0,))))
    assert natural_density(union).value == Fraction(4, 6)
    # zero-density parts never change an exact density
    mixed = UnionSet((ResidueClasses(2, (1,)), Squares(), FiniteSet((4,))))
    assert natural_density(mixed).value == Fraction(1, 2)
    zeros = UnionSet((Squares(), PowersOfTwo(), FiniteSet((1, 2))))
    z = natural_density(zeros)
    assert z.kind == "zero_by_bound" and z.is_zero
    huge = UnionSet((ResidueClasses(9973, (0,)), ResidueClasses(9967, (0,))))
    assert natural_density(huge).kind == "unknown"


def test_density_bounds_hold_empirically():
    # the certified counting bound must dominate the true count
    import math

    for ds, bound in ((Squares(), lambda n: math.isqrt(n)),
                      (PowersOfTwo(), lambda n: int(math.log2(n)) + 1)):
        for n in (100, 10_000):
            count = sum(1 for k in range(1, n + 1) if contains(ds, k))
            assert count <= bound(n)


DENSITY_LEAVES = (FiniteSet((3,)), FiniteSet(()), ResidueClasses(2, (1,)),
                  ResidueClasses(3, (0, 2)), ResidueClasses(1000, (1,)),
                  ResidueClasses(10**7, (0,)), Squares(), PowersOfTwo())


def _grow(trees):
    """The trees, their complements, and their unions of 0, 1 or 2 parts."""
    return [*trees, *map(Complement, trees), UnionSet(()), *(UnionSet((a,)) for a in trees),
            *(UnionSet((a, b)) for a in trees for b in trees)]


def _random_descriptor(rng, depth):
    """A random descriptor tree of at most the given depth."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            return FiniteSet(tuple(rng.sample(range(40), rng.randrange(4))))
        if kind == 1:
            return Squares()
        if kind == 2:
            return PowersOfTwo()
        m = rng.choice((1, 2, 3, 4, 6, 7, 12, 1000, 10**7))
        return ResidueClasses(m, tuple(rng.randrange(m) for _ in range(rng.randrange(4))))
    if rng.random() < 0.4:
        return Complement(_random_descriptor(rng, depth - 1))
    return UnionSet(tuple(_random_descriptor(rng, depth - 1) for _ in range(rng.randrange(4))))


def test_natural_density_matches_the_normal_form_on_every_small_tree():
    """Kind, value, bound and refusal reason all equal the residue-set
    normal form's, on every tree of depth at most 2 over the leaves."""
    trees = _grow(_grow(DENSITY_LEAVES))
    assert len(trees) == 8189
    for ds in trees:
        assert natural_density(ds) == normal_form_density(ds), ds


def test_natural_density_matches_the_normal_form_on_seeded_trees():
    import random

    rng = random.Random(2024)
    kinds = set()
    for _ in range(2000):
        ds = _random_descriptor(rng, 3)
        density = natural_density(ds)
        assert density == normal_form_density(ds), ds
        kinds.add((density.kind, density.reason))
    assert kinds == {("exact", None), ("zero_by_bound", None),
                     ("unknown", "complemented modulus exceeds 1000000"),
                     ("unknown", "lcm of union moduli exceeds 1000000")}


def test_density_of_a_union_near_the_cap_stays_small():
    """Two residue sets with lcm 999,000 take one mask over the tail types,
    not every residue lifted to the lcm."""
    import tracemalloc

    union = UnionSet((ResidueClasses(1000, tuple(range(1, 1000))),
                      ResidueClasses(999, tuple(range(1, 999)))))
    tracemalloc.start()
    try:
        density = natural_density(union)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert density.value == Fraction(998999, 999000)
    assert peak < 16 * 2**20


from hypothesis import given, settings, strategies as st  # noqa: E402

_moduli = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
_simple_sets = st.one_of(
    st.builds(FiniteSet, st.lists(st.integers(0, 40), max_size=4).map(tuple)),
    _moduli.flatmap(lambda m: st.builds(
        ResidueClasses, st.just(m),
        st.sets(st.integers(0, m - 1), max_size=m).map(tuple))),
    st.just(Squares()),
    st.just(PowersOfTwo()),
)
_descriptors = st.one_of(
    _simple_sets,
    st.builds(Complement, _simple_sets),
    st.builds(UnionSet, st.tuples(_simple_sets, _simple_sets)),
    st.builds(Complement, st.builds(UnionSet, st.tuples(_simple_sets, _simple_sets))),
)


@settings(max_examples=50, deadline=None)
@given(_descriptors)
def test_density_matches_direct_counting(ds):
    """Counting to n can differ from density * n by at most the periodic
    rounding error plus the recorded density-zero corrections, so the exact
    algebra is checkable against a direct scan."""
    import math

    density = natural_density(ds)
    assert density.kind in ("exact", "zero_by_bound")
    nf = density_nf(ds)
    n = 20_000
    count = sum(1 for k in range(1, n + 1) if contains(ds, k))
    slack = (nf.modulus + nf.sqrt_terms * math.isqrt(n)
             + nf.log_terms * (int(math.log2(n)) + 1) + nf.finite_bound)
    assert abs(count - density.value * n) <= slack


def test_stat_converges_examples(monkeypatch):
    cf = canonical_family(sierpinski())
    space = cf.space
    monkeypatch.setattr(qmetric, "EMPIRICAL_HORIZONS", (10**3, 10**4))

    squares_dip = SequenceSpec(space, 1, ((Squares(), 0),))
    res = stat_converges(squares_dip, cf, 1)
    assert res.verdict == "true"
    assert not right_converges(squares_dip, cf, 1)
    by_index = {r.index: r for r in res.per_index}
    assert by_index["[1]"].density.kind == "zero_by_bound"

    assert stat_converges(SequenceSpec(space, 0), cf, 0).verdict == "true"

    third = SequenceSpec(space, 0, ((ResidueClasses(3, (0,)), 1),))
    q = matrix_family(2, [[0, 1], [0, 0]])
    res = stat_converges(third, q, 0)
    assert res.verdict == "false"
    assert res.per_index[0].density.value == Fraction(1, 3)


def test_stat_converges_undecided(monkeypatch):
    space = PointSpace(2)
    seq = SequenceSpec(space, 0, (
        (ResidueClasses(9973, (0,)), 1),
        (ResidueClasses(9967, (1,)), 1),
    ))
    q = matrix_family(2, [[0, 1], [0, 0]])
    monkeypatch.setattr(qmetric, "EMPIRICAL_HORIZONS", (10**3,))
    res = stat_converges(seq, q, 0)
    assert res.verdict == "undecided"


def test_stat_deviation_respects_rule_shadowing(monkeypatch):
    # the first rule hides the second on even positions, so the deviation
    # set of the second rule's point is the odd multiples of 3
    space = PointSpace(3)
    seq = SequenceSpec(space, 0, (
        (ResidueClasses(2, (0,)), 1),
        (ResidueClasses(3, (0,)), 2),
    ))
    q = matrix_family(3, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])  # deviation only for value 2
    monkeypatch.setattr(qmetric, "EMPIRICAL_HORIZONS", (10**4,))
    res = stat_converges(seq, q, 0)
    assert res.verdict == "false"
    assert res.per_index[0].density.value == Fraction(1, 6)
    horizon, count = res.per_index[0].empirical[0]
    assert count == sum(1 for k in range(1, horizon + 1) if k % 3 == 0 and k % 2 == 1)


def test_stat_implied_by_right_convergence(monkeypatch):
    cf = canonical_family(sierpinski())
    monkeypatch.setattr(qmetric, "EMPIRICAL_HORIZONS", (10**3,))
    for seq in all_eventually_periodic(cf.space):
        for x in range(2):
            if right_converges(seq, cf, x):
                assert stat_converges(seq, cf, x).verdict == "true"


def test_empirical_counts_match_direct_evaluation(monkeypatch):
    cf = canonical_family(sierpinski())
    monkeypatch.setattr(qmetric, "EMPIRICAL_HORIZONS", (10**3,))
    space = cf.space
    seq = SequenceSpec(space, 1, ((Squares(), 0), (ResidueClasses(7, (3,)), 1)))
    res = stat_converges(seq, cf, 1)
    by_index = {r.index: r for r in res.per_index}
    row = index_rows(cf, "[1]")[1]
    expected = sum(1 for k in range(1, 1001) if not row >> value_at(seq, k) & 1)
    assert by_index["[1]"].empirical[0] == (1000, expected)
