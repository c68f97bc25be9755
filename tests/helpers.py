"""Shared builders and independent oracles for the test suite."""

from functools import lru_cache
from itertools import combinations_with_replacement

from qmtop import _kernels
from qmtop.core import (
    FiniteSet,
    PointSpace,
    QuasiFamily,
    ResidueClasses,
    SequenceSpec,
    Topology,
    freeze_matrix,
    serialize,
)
from qmtop.qmetric import sep_pair, to_topology
from qmtop.representation import _family_candidates
from qmtop.topology import Preorder, enumerate_preorders


def sierpinski() -> Topology:
    return Topology.from_masks(PointSpace(2), [0b00, 0b10, 0b11])


def preorder_distance_matrix(p: Preorder) -> tuple[tuple[int, ...], ...]:
    """d(x, y) = 0 iff x is below y."""
    n = p.space.n
    return freeze_matrix([[0 if p.rows[x] >> y & 1 else 1 for y in range(n)]
                          for x in range(n)])


def preorder_family(p: Preorder, label: str = "i0") -> QuasiFamily:
    return QuasiFamily(p.space, (label,), (preorder_distance_matrix(p),))


def small_index_families(n: int, max_indices: int = 2):
    """Every family of one or two independent preorder coordinates on n points."""
    mats = [preorder_distance_matrix(p) for p in enumerate_preorders(n)]
    space = PointSpace(n)
    for count in range(1, max_indices + 1):
        for chosen in combinations_with_replacement(range(len(mats)), count):
            yield QuasiFamily(space, tuple(f"i{k}" for k in range(count)),
                              tuple(mats[i] for i in chosen))


def pair_separated_t0(t: Topology, x: int, y: int) -> bool:
    """Oracle: some open contains exactly one of x, y."""
    return any((s.mask >> x & 1) != (s.mask >> y & 1) for s in t.opens)


def pair_separated_t1(t: Topology, x: int, y: int) -> bool:
    """Oracle: some open contains x and not y."""
    return any(s.mask >> x & 1 and not s.mask >> y & 1 for s in t.opens)


def pair_separated_t2(t: Topology, x: int, y: int) -> bool:
    """Oracle: x and y have disjoint open neighbourhoods."""
    return any(u.mask >> x & 1 and v.mask >> y & 1 and u.mask & v.mask == 0
               for u in t.opens for v in t.opens)


OPENS_ORACLES = {"t0": pair_separated_t0, "t1": pair_separated_t1, "t2": pair_separated_t2}


def object_find_discrepancy(pred_a: str, pred_b: str, n: int, max_indices: int):
    """Oracle: the first candidate family, built as a `QuasiFamily` and
    checked pair by pair (direct axioms by scanning the opens of its
    generated topology), where the predicates disagree."""
    def holds(name, q, t, x, y):
        if name in OPENS_ORACLES:
            return OPENS_ORACLES[name](t, x, y)
        return sep_pair(q, name, x, y)

    for points in range(1, n + 1):
        for q in _family_candidates(points, max_indices):
            t = to_topology(q)
            if any(holds(pred_a, q, t, x, y) != holds(pred_b, q, t, x, y)
                   for x in range(points) for y in range(points) if x != y):
                return q
    return None


def eventually_periodic(space: PointSpace, prefix: tuple[int, ...],
                        period: tuple[int, ...]) -> SequenceSpec:
    """Sequence with the given prefix, then the period repeated forever."""
    assert 1 <= len(period) <= 2
    rules = [(FiniteSet((k + 1,)), v) for k, v in enumerate(prefix)]
    if len(period) == 1:
        return SequenceSpec(space, period[0], tuple(rules))
    first_pos = len(prefix) + 1
    rules.append((ResidueClasses(2, (first_pos % 2,)), period[0]))
    return SequenceSpec(space, period[1], tuple(rules))


def all_eventually_periodic(space: PointSpace, max_prefix: int = 2,
                            max_period: int = 2):
    """Every sequence with prefix length <= max_prefix, period <= max_period."""
    points = tuple(space.points())

    def tuples(length):
        if length == 0:
            return [()]
        shorter = tuples(length - 1)
        return [t + (p,) for t in shorter for p in points]

    out = []
    for plen in range(max_prefix + 1):
        for prefix in tuples(plen):
            for clen in range(1, max_period + 1):
                for period in tuples(clen):
                    out.append(eventually_periodic(space, prefix, period))
    return out


def family_route_topologies(n: int) -> list[Topology]:
    """Oracle: every labelled topology on n <= 4 points, found by filtering
    all 2^(2^n) families of subsets, in `enumerate_topologies` order."""
    assert 1 <= n <= 4, "the family route holds 2^(2^n) candidates in memory"
    space = PointSpace(n)
    tops = [Topology.from_masks(space, [u for u in range(1 << n) if fam >> u & 1])
            for fam in map(int, _kernels.closed_family_masks(n))]
    tops.sort(key=serialize)
    return tops


@lru_cache(maxsize=None)
def _family_route_opens(n: int) -> tuple[frozenset, ...]:
    return tuple(frozenset(t.open_masks) for t in family_route_topologies(n))


def brute_minimal_topology(space: PointSpace, subbase_masks) -> frozenset:
    """Oracle: intersect the open families of every topology containing the
    subbase (enumerated independently of the closure code under test)."""
    keep = None
    for opens in _family_route_opens(space.n):
        if all(m in opens for m in subbase_masks):
            keep = opens if keep is None else keep & opens
    assert keep is not None
    return frozenset(keep)


def close_under(masks: set[int], op) -> set[int]:
    """Oracle: the closure of a set of masks under a binary operation."""
    work = set(masks)
    frontier = list(work)
    while frontier:
        fresh = []
        for a in frontier:
            for b in work:
                c = op(a, b)
                if c not in work:
                    fresh.append(c)
        work.update(fresh)
        frontier = fresh
    return work


def subbase_closure(space: PointSpace, subbase_masks) -> frozenset:
    """Oracle: close the subbase and the full set under intersection, then
    the result and the empty set under union."""
    base = close_under(set(subbase_masks) | {space.full_mask}, lambda a, b: a & b)
    return frozenset(close_under(base | {0}, lambda a, b: a | b))

