"""Shared builders and independent oracles for the test suite."""

import io
import json
import math
from contextlib import redirect_stdout
from functools import lru_cache, partial
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple

from qmtop import _kernels, _tails
from qmtop.cli import emit
from qmtop.continuity import (
    SEMIGROUP_MAX_SIZE,
    AxiomViolation,
    _mask,
    _order,
    check_positives,
    check_value_semigroup,
)
from qmtop.core import (
    Complement,
    DirectedNet,
    FiniteSet,
    InvariantViolation,
    PointSpace,
    PositiveSet,
    PowersOfTwo,
    QuasiFamily,
    ResidueClasses,
    SequenceSpec,
    SpaceMismatchError,
    Squares,
    Topology,
    UnionSet,
    ValueSemigroup,
    members,
    record,
    serialize,
)
from qmtop.qmetric import (
    DENSITY_MODULUS_CAP,
    DensityValue,
    ball_meet,
    converges_topologically,
    is_right_cauchy,
    left_converges,
    product_converges,
    right_converges,
    sep_metric,
    to_topology,
)
from qmtop.representation import (
    RoundtripReport,
    _family_candidates,
    canonical_family,
    discrepancy_pairs,
)
from qmtop.topology import check_topology, enumerate_preorders, generate_from_subbase, separated


@lru_cache(maxsize=None)
def opens_of(t: Topology) -> tuple[int, ...]:
    """Oracle: the opens of a topology, ascending, found by testing every
    subset for holding the row of each of its points."""
    n = t.space.n
    return tuple(u for u in range(1 << n)
                 if all(t.rows[x] & ~u == 0 for x in range(n) if u >> x & 1))


def least_open(t: Topology, x: int) -> int:
    """Oracle: the intersection of every open containing x."""
    out = t.space.full_mask
    for u in opens_of(t):
        if u >> x & 1:
            out &= u
    return out


def from_opens(space: PointSpace, masks) -> Topology:
    """The topology whose opens are the given masks, which must be closed:
    row x is the intersection, open by open, of the masks containing x."""
    masks = tuple(sorted(set(masks)))
    rows = [space.full_mask] * space.n
    for u in masks:
        for x in range(space.n):
            if u >> x & 1:
                rows[x] &= u
    t = Topology(space, tuple(rows))
    assert opens_of(t) == masks, "the masks are not the opens of a topology"
    return t


def index_rows(q: QuasiFamily, label: str) -> tuple[int, ...]:
    """The zero rows of the index with this label: row x masks the ball
    {y : d_label(x, y) = 0}."""
    return q.rows[q.indices.index(label)]


# ---------------------------------------------------------------------------
# Maps and the two sides of the paper's statement (2)


@record
class PointMap:
    """A total function between two finite spaces."""

    domain: PointSpace
    codomain: PointSpace
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain.n:
            raise InvariantViolation("map must assign a value to every domain point")
        for v in self.values:
            self.codomain.check_point(v)

    def __call__(self, p: int) -> int:
        return self.values[p]

    def preimage_mask(self, target_mask: int) -> int:
        mask = 0
        for x in self.domain.points():
            if target_mask >> self.values[x] & 1:
                mask |= 1 << x
        return mask


def is_continuous(f: PointMap, td: Topology, tc: Topology) -> bool:
    """Whether f is monotone: x below y implies f(x) below f(y).  On finite
    spaces that is continuity, as the least open around x must lie inside
    the preimage of the least open around f(x)."""
    if not f.domain.compatible(td.space) or not f.codomain.compatible(tc.space):
        raise SpaceMismatchError("map spaces do not match the topologies")
    return all(row & ~f.preimage_mask(tc.rows[f(x)]) == 0 for x, row in enumerate(td.rows))


def metric_continuous_at(f: PointMap, q: QuasiFamily, p: QuasiFamily, x: int) -> bool:
    """The paper's condition (2): for each codomain index some domain ball at
    x maps into the codomain ball."""
    if not f.domain.compatible(q.space) or not f.codomain.compatible(p.space):
        raise SpaceMismatchError("map spaces do not match the families")
    f.domain.check_point(x)
    fx = f(x)
    for codomain_rows in p.rows:
        pre = f.preimage_mask(codomain_rows[fx])
        if not any(rows[x] & ~pre == 0 for rows in q.rows):
            return False
    return True


def opens_continuous(f: PointMap, td: Topology, tc: Topology) -> bool:
    """Oracle: the preimage of every codomain open is open in the domain."""
    domain_opens = set(opens_of(td))
    return all(f.preimage_mask(u) in domain_opens for u in opens_of(tc))


def sierpinski() -> Topology:
    return from_opens(PointSpace(2), [0b00, 0b10, 0b11])


def d_U(t: Topology, u: int, x: int, y: int) -> int:
    """Oracle: the paper's d_U, 1 iff x lies in the open and y escapes it.

    For x inside the open, the zero-set of d_U(x, .) recovers the open
    exactly; that identity is asserted on every call.
    """
    if u not in opens_of(t):
        raise ValueError("u must be an open set of the topology")
    t.space.check_point(x)
    t.space.check_point(y)
    value = 1 if (u >> x & 1 and not u >> y & 1) else 0
    if u >> x & 1:
        zero_set = sum(1 << z for z in t.space.points()
                       if not (u >> x & 1 and not u >> z & 1))
        if zero_set != u:
            raise AssertionError("zero-set of d_U(x, .) failed to recover the open")
    return value


def p_U(t: Topology, u: int, x: int, y: int) -> int:
    """Oracle: indicator of the open at x times indicator of its complement
    at y.

    Asserted pointwise equal to `d_U`, not merely equivalent.
    """
    if u not in opens_of(t):
        raise ValueError("u must be an open set of the topology")
    value = (1 if u >> x & 1 else 0) * (1 if not u >> y & 1 else 0)
    if value != d_U(t, u, x, y):
        raise AssertionError("p_U and d_U disagree")
    return value


def zero_rows(matrix) -> tuple[int, ...]:
    """The zero-row masks of a {0,1} distance matrix: bit y of row x is set
    iff d(x, y) = 0."""
    return tuple(sum(1 << y for y, d in enumerate(row) if d == 0) for row in matrix)


def matrix_family(n: int, *matrices, labels=None) -> QuasiFamily:
    """The family of the given distance matrices, indexed i0, i1, ... unless
    labels are given."""
    labels = labels or tuple(f"i{k}" for k in range(len(matrices)))
    return QuasiFamily(PointSpace(n), labels, tuple(zero_rows(m) for m in matrices))


def distance_matrices(q: QuasiFamily) -> list[list[list[int]]]:
    """d_k(x, y) for every index k: 1 where y is outside zero row x."""
    n = q.space.n
    return [[[0 if r >> y & 1 else 1 for y in range(n)] for r in rows] for rows in q.rows]


def preorder_family(t: Topology, label: str = "i0") -> QuasiFamily:
    """d(x, y) = 0 iff x is below y in the specialization order."""
    return QuasiFamily(t.space, (label,), (t.rows,))


def label_sorted(q: QuasiFamily) -> QuasiFamily:
    """The family with its indices sorted by label and its rows permuted
    consistently: the order in which `serialize` writes them."""
    order = sorted(range(len(q.indices)), key=lambda k: q.indices[k])
    return QuasiFamily(q.space, tuple(q.indices[k] for k in order),
                       tuple(q.rows[k] for k in order))


def _object_canonical_family(t: Topology, opens=None) -> QuasiFamily:
    """The canonical family built as objects: each open (each of `opens`,
    if given) labelled by the JSON list of its points, with one zero-row
    tuple per open, point by point."""
    full, opens = t.space.full_mask, opens_of(t) if opens is None else opens
    return QuasiFamily(t.space,
                       tuple(json.dumps(members(u), separators=(",", ":")) for u in opens),
                       tuple(tuple(u if u >> x & 1 else full for x in t.space.points())
                             for u in opens))


def object_route_canonical(t: Topology) -> str:
    """Oracle: the document `canonical` prints, written from objects: the
    labelled family sorted by label, then its distance matrices through
    `json.dumps`."""
    q = label_sorted(_object_canonical_family(t))
    obj = {"kind": "qmetric", "n": q.space.n}
    if q.space.labels is not None:
        obj["labels"] = list(q.space.labels)
    obj |= {"indices": list(q.indices), "matrices": distance_matrices(q)}
    return json.dumps(obj, separators=(",", ":"))


def object_roundtrip(t: Topology, opens=None) -> RoundtripReport:
    """Oracle: `roundtrip` through the labelled object family of the opens
    of `t`, or of the given ones in their place."""
    family = _object_canonical_family(t, opens)
    original, back = set(opens_of(t)), set(opens_of(to_topology(family)))
    missing, extra = tuple(sorted(original - back)), tuple(sorted(back - original))
    return RoundtripReport(not missing and not extra, missing, extra)


def object_route_documents(n: int, kind: str) -> list[str]:
    """Oracle: the documents `enumerate --n N --kind KIND` streams, built as
    objects: `serialize` of each preorder's topology, sorted by document, or
    of each preorder's one-index family, in row order."""
    if kind == "topologies":
        return sorted(map(serialize, enumerate_preorders(n)))
    return [serialize(preorder_family(t)) for t in enumerate_preorders(n)]


def small_index_families(n: int, max_indices: int = 2):
    """Every family of one or two independent preorder coordinates on n points."""
    preorders = [t.rows for t in enumerate_preorders(n)]
    space = PointSpace(n)
    for count in range(1, max_indices + 1):
        for chosen in combinations_with_replacement(range(len(preorders)), count):
            yield QuasiFamily(space, tuple(f"i{k}" for k in range(count)),
                              tuple(preorders[i] for i in chosen))


def triangles(rows) -> list[tuple[int, int, int]]:
    """Oracle for `_kernels.triangles`: the loop over each x, each y in row
    x and each z in row y outside row x, with no test of distinct rows
    first."""
    return [(x, y, z) for x, row in enumerate(rows) for y in members(row)
            for z in members(rows[y] & ~row)]


def matrix_check_quasifamily(labels, matrices) -> list[tuple]:
    """Oracle: every reflexivity and triangle failure as (kind, index,
    points), found by the x/y/z loop over the distance matrices."""
    out = []
    for label, m in zip(labels, matrices):
        n = len(m)
        for x in range(n):
            if m[x][x] != 0:
                out.append(("nonzero-self-distance", label, (x,)))
        for x in range(n):
            for y in range(n):
                if m[x][y] == 0:
                    for z in range(n):
                        if m[y][z] == 0 and m[x][z] == 1:
                            out.append(("triangle", label, (x, y, z)))
    return out


def matrix_sep_pair(matrices, mode: str, x: int, y: int) -> bool:
    """Oracle: one separation mode at one ordered pair, scanning every
    index's distance matrix."""
    if mode == "t0_unordered":
        return any(m[x][y] == 1 or m[y][x] == 1 for m in matrices)
    if mode in ("t1_amended", "literal_r3"):
        return any(m[x][y] == 1 for m in matrices)
    if mode in ("literal_r4", "literal_r5"):
        return any(m[x][y] == 1 and m[y][x] == 1 for m in matrices)
    raise ValueError(f"unknown separation mode {mode!r}")


def pair_separated_t0(t: Topology, x: int, y: int) -> bool:
    """Oracle: some open contains exactly one of x, y."""
    return any((s >> x & 1) != (s >> y & 1) for s in opens_of(t))


def pair_separated_t1(t: Topology, x: int, y: int) -> bool:
    """Oracle: some open contains x and not y."""
    return any(s >> x & 1 and not s >> y & 1 for s in opens_of(t))


def pair_separated_t2(t: Topology, x: int, y: int) -> bool:
    """Oracle: x and y have disjoint open neighbourhoods."""
    opens = opens_of(t)
    return any(u >> x & 1 and v >> y & 1 and u & v == 0 for u in opens for v in opens)


OPENS_ORACLES = {"t0": pair_separated_t0, "t1": pair_separated_t1, "t2": pair_separated_t2}


def object_find_discrepancy(pred_a: str, pred_b: str, n: int, max_indices: int):
    """Oracle: the first candidate family, built as a `QuasiFamily` and
    checked pair by pair (direct axioms by scanning the opens of its
    generated topology, metric modes by scanning its matrices), where the
    predicates disagree."""
    def holds(name, mats, t, x, y):
        if name in OPENS_ORACLES:
            return OPENS_ORACLES[name](t, x, y)
        return matrix_sep_pair(mats, name, x, y)

    for points in range(1, n + 1):
        for rows in _family_candidates(points, max_indices):
            q = QuasiFamily(PointSpace(points), tuple(f"i{k}" for k in range(len(rows))), rows)
            t, mats = to_topology(q), distance_matrices(q)
            if any(holds(pred_a, mats, t, x, y) != holds(pred_b, mats, t, x, y)
                   for x in range(points) for y in range(points) if x != y):
                return q
    return None


def canonical_route_separation(t: Topology, method: str) -> tuple[int, str]:
    """Oracle: exit code and stdout of `separation --method METHOD` on a
    topology document, computed on its canonical family: the metric modes by
    `sep_metric`, the literal ones by `discrepancy_pairs`, and the direct
    axioms on the topology the family generates."""
    q = canonical_family(t)
    rows = to_topology(q).rows
    direct = {axiom: separated(rows, axiom) for axiom in ("t0", "t1", "t2")}
    if method == "metric":
        metric = {"t0": sep_metric(q, "t0_unordered"), "t1": sep_metric(q, "t1_amended"),
                  "t2": sep_metric(q, "t2")}
        mismatches = [axiom for axiom in direct if metric[axiom] != direct[axiom]]
        report = partial(
            emit, "separation", "fail" if mismatches else "pass",
            reason=f"metric and direct verdicts disagree on {mismatches}"
            if mismatches else None,
            detail={"method": "metric", **metric,
                    "direct": direct, "disagreements": mismatches})
        failed = bool(mismatches)
    else:
        axiom = {"literal_r3": "t0", "literal_r4": "t1", "literal_r5": "t2"}[method]
        pairs = discrepancy_pairs(q, method, axiom)
        report = partial(
            emit, "separation", "fail" if pairs else "pass",
            reason=f"literal condition disagrees with direct {axiom} at some pair"
            if pairs else None,
            detail={"method": method, "axiom": axiom,
                    "condition": sep_metric(q, method),
                    "direct": direct[axiom], "disagreeing_pairs": pairs})
        failed = bool(pairs)
    out = io.StringIO()
    with redirect_stdout(out):
        report()
    return int(failed), out.getvalue()


def family_route_separation(q: QuasiFamily, method: str) -> tuple[int, str]:
    """Oracle: exit code and stdout of `separation --method METHOD` on a
    family document, built pair by pair: the metric modes by scanning the
    distance matrices (`matrix_sep_pair`), the direct axioms by scanning the
    opens that the family's balls generate (`OPENS_ORACLES`), and the
    disagreeing pairs in ascending order."""
    n = q.space.n
    mats = distance_matrices(q)
    balls = [sum(1 << y for y in range(n) if m[x][y] == 0) for m in mats for x in range(n)]
    t = from_opens(q.space, subbase_closure(q.space, balls))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    direct = {axiom: all(oracle(t, x, y) for x, y in pairs)
              for axiom, oracle in OPENS_ORACLES.items()}
    if method == "direct":
        report = partial(emit, "separation", "pass", detail={"method": "direct", **direct})
        failed = False
    elif method == "metric":
        # x and y are T2-separated iff their ball meets are disjoint: no
        # point lies at distance 0 from both in every index.
        meet = [sum(1 << y for y in range(n) if all(m[x][y] == 0 for m in mats))
                for x in range(n)]
        metric = {"t0": all(matrix_sep_pair(mats, "t0_unordered", x, y) for x, y in pairs),
                  "t1": all(matrix_sep_pair(mats, "t1_amended", x, y) for x, y in pairs),
                  "t2": all(not meet[x] & meet[y] for x, y in pairs)}
        mismatches = [axiom for axiom in direct if metric[axiom] != direct[axiom]]
        report = partial(
            emit, "separation", "fail" if mismatches else "pass",
            reason=f"metric and direct verdicts disagree on {mismatches}"
            if mismatches else None,
            detail={"method": "metric", **metric,
                    "direct": direct, "disagreements": mismatches})
        failed = bool(mismatches)
    else:
        axiom = {"literal_r3": "t0", "literal_r4": "t1", "literal_r5": "t2"}[method]
        held = {(x, y): (matrix_sep_pair(mats, method, x, y), OPENS_ORACLES[axiom](t, x, y))
                for x, y in pairs}
        disagree = [{"pair": [x, y], method: a, axiom: b}
                    for (x, y), (a, b) in held.items() if a != b]
        report = partial(
            emit, "separation", "fail" if disagree else "pass",
            reason=f"literal condition disagrees with direct {axiom} at some pair"
            if disagree else None,
            detail={"method": method, "axiom": axiom,
                    "condition": all(a for a, _ in held.values()),
                    "direct": direct[axiom], "disagreeing_pairs": disagree})
        failed = bool(disagree)
    out = io.StringIO()
    with redirect_stdout(out):
        report()
    return int(failed), out.getvalue()


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
    tops = [from_opens(space, [u for u in range(1 << n) if fam >> u & 1])
            for fam in _kernels.closed_family_masks(n)]
    tops.sort(key=serialize)
    return tops


@lru_cache(maxsize=None)
def _family_route_opens(n: int) -> tuple[frozenset, ...]:
    return tuple(frozenset(opens_of(t)) for t in family_route_topologies(n))


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



def _descriptor_parts(ds):
    """ds and every descriptor nested inside it."""
    yield ds
    if isinstance(ds, Complement):
        yield from _descriptor_parts(ds.of)
    elif isinstance(ds, UnionSet):
        for part in ds.parts:
            yield from _descriptor_parts(part)


def contains(ds, k: int) -> bool:
    """Oracle: whether position k is a member of ds, tested by itself."""
    if isinstance(ds, FiniteSet):
        return k in ds.members
    if isinstance(ds, ResidueClasses):
        return k % ds.modulus in ds.residues
    if isinstance(ds, Squares):
        return k >= 0 and math.isqrt(k) ** 2 == k
    if isinstance(ds, PowersOfTwo):
        return k >= 1 and k & (k - 1) == 0
    if isinstance(ds, Complement):
        return not contains(ds.of, k)
    if isinstance(ds, UnionSet):
        return any(contains(q, k) for q in ds.parts)
    raise TypeError(f"not a descriptor: {ds!r}")


def value_at(seq: SequenceSpec, k: int) -> int:
    """Oracle: the point seq takes at position k, the first rule whose set
    contains k or else the default."""
    return next((point for ds, point in seq.rules if contains(ds, k)), seq.default)


def _contains_type(ds, r: int, s: int, p: int) -> bool:
    """Whether ds holds the positions of residue r (mod a multiple of each
    rule modulus), squares when s is set and powers of two when p is."""
    if isinstance(ds, FiniteSet):
        return False
    if isinstance(ds, ResidueClasses):
        return r % ds.modulus in ds.residues
    if isinstance(ds, Squares):
        return s == 1
    if isinstance(ds, PowersOfTwo):
        return p == 1
    if isinstance(ds, Complement):
        return not _contains_type(ds.of, r, s, p)
    if isinstance(ds, UnionSet):
        return any(_contains_type(q, r, s, p) for q in ds.parts)
    raise TypeError(f"not a descriptor: {ds!r}")


def tail_types_by_type(seq: SequenceSpec) -> tuple[int, int, int]:
    """Oracle: the `(modulus, settle, recurrent)` of `_tails.tail_types`,
    with the value of each tail type (r, s, p) found by testing the rules
    in order, one membership test per (type, rule)."""
    parts = [d for ds, _ in seq.rules for d in _descriptor_parts(ds)]
    modulus = math.lcm(1, *(d.modulus for d in parts if isinstance(d, ResidueClasses)))
    square_residues = {j * j % modulus for j in range(modulus)}
    pre2, cycle2 = _tails._pow_orbit(2, modulus, with_parity=True)
    pre4, cycle4 = _tails._pow_orbit(4, modulus, with_parity=False)
    settle = max([0, *(d.members[-1] for d in parts if isinstance(d, FiniteSet) and d.members),
                  *(1 << e for e in range(pre2) if e & 1), *(1 << 2 * e for e in range(pre4))])
    recurrent = 0
    for r in range(modulus):
        for s in (0, 1):
            for p in (0, 1):
                value = next((point for ds, point in seq.rules if _contains_type(ds, r, s, p)),
                             seq.default)
                if s and p:
                    vast = r in cycle4
                elif s:
                    vast = r in square_residues
                elif p:
                    vast = (1, r) in cycle2
                else:
                    vast = True
                if vast:
                    recurrent |= 1 << value
    return modulus, settle, recurrent


class NormalForm(NamedTuple):
    """A described set as {k : k mod modulus in residues}, up to a
    density-zero correction bounded by the counted sparse components."""
    modulus: int
    residues: frozenset
    sqrt_terms: int
    log_terms: int
    finite_bound: int


class _DensityUnknown(Exception):
    pass


def _lift(residues: frozenset, small: int, big: int) -> frozenset:
    step = big // small
    return frozenset(r + t * small for r in residues for t in range(step))


def density_nf(ds) -> NormalForm:
    """Oracle: the normal form of ds, with residue sets lifted to the lcm of
    a union's moduli; refuses as `natural_density` does."""
    if isinstance(ds, FiniteSet):
        return NormalForm(1, frozenset(), 0, 0, len(ds.members))
    if isinstance(ds, ResidueClasses):
        return NormalForm(ds.modulus, frozenset(ds.residues), 0, 0, 0)
    if isinstance(ds, Squares):
        return NormalForm(1, frozenset(), 1, 0, 0)
    if isinstance(ds, PowersOfTwo):
        return NormalForm(1, frozenset(), 0, 1, 0)
    if isinstance(ds, Complement):
        nf = density_nf(ds.of)
        if nf.modulus > DENSITY_MODULUS_CAP:
            raise _DensityUnknown(f"complemented modulus exceeds {DENSITY_MODULUS_CAP}")
        return nf._replace(residues=frozenset(range(nf.modulus)) - nf.residues)
    if isinstance(ds, UnionSet):
        out = NormalForm(1, frozenset(), 0, 0, 0)
        for part in ds.parts:
            nf = density_nf(part)
            modulus = math.lcm(out.modulus, nf.modulus)
            if modulus > DENSITY_MODULUS_CAP:
                raise _DensityUnknown(f"lcm of union moduli exceeds {DENSITY_MODULUS_CAP}")
            out = NormalForm(
                modulus,
                _lift(out.residues, out.modulus, modulus) | _lift(nf.residues, nf.modulus, modulus),
                out.sqrt_terms + nf.sqrt_terms,
                out.log_terms + nf.log_terms,
                out.finite_bound + nf.finite_bound,
            )
        return out
    raise TypeError(f"not a descriptor: {ds!r}")


def normal_form_density(ds) -> DensityValue:
    """Oracle: the `DensityValue` of ds read off its normal form: the share
    of its residues, or zero certified by the summed counting bounds."""
    try:
        nf = density_nf(ds)
    except _DensityUnknown as e:
        return DensityValue.unknown(e.args[0])
    if nf.residues:
        return DensityValue.exact(Fraction(len(nf.residues), nf.modulus))
    if nf.sqrt_terms or nf.log_terms:
        parts = []
        if nf.sqrt_terms:
            parts.append("isqrt(n)" if nf.sqrt_terms == 1 else f"{nf.sqrt_terms}*isqrt(n)")
        if nf.log_terms:
            term = "(floor(log2(n)) + 1)"
            parts.append(term if nf.log_terms == 1 else f"{nf.log_terms}*{term}")
        if nf.finite_bound:
            parts.append(str(nf.finite_bound))
        return DensityValue.zero_by_bound("count(k <= n) <= " + " + ".join(parts))
    return DensityValue.exact(Fraction(0))


def net_eventually(net: DirectedNet, predicate) -> bool:
    """Oracle: some element a has every element at or after a take a point
    that satisfies the predicate."""
    m = len(net.elements)
    return any(all(predicate(net.assignment[b])
                   for b in range(m) if net.order[a][b])
               for a in range(m))


def net_right_converges(net: DirectedNet, q: QuasiFamily, x: int) -> bool:
    """Oracle: for every index, d_i(x, net) is eventually 0."""
    return all(net_eventually(net, lambda v, row=rows[x]: row >> v & 1) for rows in q.rows)


def net_left_converges(net: DirectedNet, q: QuasiFamily, x: int) -> bool:
    """Oracle: for every index, d_i(net, x) is eventually 0."""
    return all(net_eventually(net, lambda v, rows=rows: rows[v] >> x & 1) for rows in q.rows)


def net_is_right_cauchy(net: DirectedNet, q: QuasiFamily) -> bool:
    """Oracle: for every index, some a0 has d_i(net_a, net_b) = 0 for every
    a after a0 and every b after a."""
    later = [[b for b, e in enumerate(row) if e] for row in net.order]
    return all(any(all(rows[net.assignment[a]] >> net.assignment[b] & 1
                       for a in later[a0] for b in later[a])
                   for a0 in range(len(later)))
               for rows in q.rows)


def directed_nets(n: int, max_elements: int = 3, up_to_renaming: bool = False):
    """Every net on n points over a directed preorder of at most
    `max_elements` elements, with every assignment, or with one assignment
    per renaming of the points (each new point the least unused one)."""
    for m in range(1, max_elements + 1):
        directed = [rows for rows in _kernels.preorder_rows(m)
                    if all(rows[a] & rows[b] for a in range(m) for b in range(m))]
        assignments = [tuple(k // n ** a % n for a in range(m)) for k in range(n ** m)]
        if up_to_renaming:
            assignments = [a for a in assignments
                           if all(v <= max(a[:i], default=-1) + 1 for i, v in enumerate(a))]
        for rows in directed:
            # order[a][b] = 1 iff b is at or after a, i.e. b is in row a.
            order = tuple(tuple(rows[a] >> b & 1 for b in range(m)) for a in range(m))
            for assignment in assignments:
                yield DirectedNet(PointSpace(n), tuple(f"e{a}" for a in range(m)),
                                  order, assignment)


@lru_cache(maxsize=None)
def net_convergence_disagreements(n: int) -> int:
    """Every net over a directed preorder of at most 3 elements against
    every family of at most 2 indices on n points, with every assignment for
    n <= 2 and one per renaming of the points for n = 3 (the families are
    closed under renaming).  Right convergence to x is eventual membership
    in the meet of the balls at x, which is x's row in the generated
    topology, and `converges_topologically` on that topology and
    `product_converges` must give the same verdict.  The oracles are read
    per index, from one-index families, and each family's verdict is the
    AND over its indices; Cauchy and left convergence are checked the same
    way.  Returns the number of disagreements; cached, as two suites read
    the same sweep."""
    preorders = [t.rows for t in enumerate_preorders(n)]
    single = [QuasiFamily(PointSpace(n), ("i0",), (rows,)) for rows in preorders]
    families = [(q, [preorders.index(rows) for rows in q.rows], ball_meet(q),
                 to_topology(q)) for q in small_index_families(n)]
    disagreements = 0
    for net in directed_nets(n, up_to_renaming=n == 3):
        eventually = [net_eventually(net, lambda v: mask >> v & 1) for mask in range(1 << n)]
        cauchy = [net_is_right_cauchy(net, p) for p in single]
        right = [[net_right_converges(net, p, x) for x in range(n)] for p in single]
        left = [[net_left_converges(net, p, x) for x in range(n)] for p in single]
        for q, chosen, meet, t in families:
            disagreements += is_right_cauchy(net, q) != all(cauchy[i] for i in chosen)
            for x in range(n):
                verdict = right_converges(net, q, x)
                disagreements += not (verdict == all(right[i][x] for i in chosen)
                                      == eventually[meet[x]] == eventually[t.rows[x]]
                                      == converges_topologically(net, t, x)
                                      == product_converges(net, q, x))
                disagreements += left_converges(net, q, x) != \
                    all(left[i][x] for i in chosen)
    return disagreements


def leq(sg: ValueSemigroup, a: int, b: int) -> bool:
    """Oracle: the derived order, a <= b iff a + x = b for some x."""
    return any(sg.add[a][x] == b for x in range(sg.size))


def _table_meet(sg: ValueSemigroup, table, a: int, b: int) -> int | None:
    lower = [c for c in range(sg.size) if table[c][a] and table[c][b]]
    for c in lower:
        if all(table[d][c] for d in lower):
            return c
    return None


def table_check_value_semigroup(candidate: ValueSemigroup) -> list[AxiomViolation]:
    """Oracle: every value-semigroup axiom, read from a bool table of the
    derived order and a dict of meets keyed by pairs."""
    m = candidate.size
    add = candidate.add
    zero, inf = candidate.zero, candidate.infinity
    out = []
    if inf == zero:
        out.append(AxiomViolation("infinity-distinct-from-zero", (inf,)))
    for a in range(m):
        for b in range(m):
            if add[a][b] != add[b][a]:
                out.append(AxiomViolation("commutativity", (a, b)))
            for c in range(m):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    out.append(AxiomViolation("associativity", (a, b, c)))
    for a in range(m):
        if add[zero][a] != a:
            out.append(AxiomViolation("identity", (a,)))
        if add[inf][a] != inf:
            out.append(AxiomViolation("absorbing", (a,)))
    table = [[leq(candidate, a, b) for b in range(m)] for a in range(m)]
    for a in range(m):
        for b in range(m):
            if a != b and table[a][b] and table[b][a]:
                out.append(AxiomViolation("antisymmetry", (a, b)))
    for a in range(m):
        halves = tuple(b for b in range(m) if add[b][b] == a)
        if len(halves) != 1:
            out.append(AxiomViolation("unique-halving", (a,) + halves))
    meets: dict[tuple[int, int], int] = {}
    for a in range(m):
        for b in range(a, m):
            meet = _table_meet(candidate, table, a, b)
            if meet is None:
                out.append(AxiomViolation("meet-exists", (a, b)))
            else:
                meets[a, b] = meets[b, a] = meet
    for a in range(m):
        for b in range(m):
            if (a, b) not in meets:
                continue
            for c in range(m):
                left = add[meets[a, b]][c]
                right = meets.get((add[a][c], add[b][c]))
                if right is not None and left != right:
                    out.append(AxiomViolation("meet-distributivity", (a, b, c)))
    return out


def table_check_positives(p: PositiveSet) -> list[AxiomViolation]:
    """Oracle: the set-of-positives axioms, read from a bool table of the
    derived order; the positives are visited in ascending order."""
    sg = p.semigroup
    m = sg.size
    table = [[leq(sg, a, b) for b in range(m)] for a in range(m)]
    positives = sorted(set(p.members))
    out = []
    for r in positives:
        for s in positives:
            meet = _table_meet(sg, table, r, s)
            if meet is not None and meet not in positives:
                out.append(AxiomViolation("meet-closed", (r, s, meet)))
    for r in positives:
        for a in range(m):
            if table[r][a] and a not in positives:
                out.append(AxiomViolation("upward-closed", (r, a)))
    for r in positives:
        for b in range(m):
            if sg.add[b][b] == r and b not in positives:
                out.append(AxiomViolation("halving-closed", (r, b)))
    for a in range(m):
        for b in range(m):
            if all(table[a][sg.add[b][r]] for r in positives) and not table[a][b]:
                out.append(AxiomViolation("order-separation", (a, b)))
    return out


# ---------------------------------------------------------------------------
# Continuity spaces: Kopperman's route to a family's topology through the
# {0,1}^I lift (Kopperman, "All topologies come from generalized metrics",
# Amer. Math. Monthly 95, 1988)


@record
class ContinuitySpace:
    space: PointSpace
    semigroup: ValueSemigroup
    positives: PositiveSet
    dist: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.space.n
        if self.positives.semigroup != self.semigroup:
            raise InvariantViolation("positives belong to a different semigroup")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise InvariantViolation("distance table shape mismatch")
        m = self.semigroup.size
        if any(not 0 <= e < m for row in self.dist for e in row):
            raise InvariantViolation("distance entry outside the carrier")


def check_continuity_space(cs: ContinuitySpace) -> list[AxiomViolation]:
    """Zero self-distance and the triangle inequality under the derived order."""
    sg = cs.semigroup
    up, _ = _order(sg)
    n = cs.space.n
    out = []
    for x in range(n):
        if cs.dist[x][x] != sg.zero:
            out.append(AxiomViolation("zero-self-distance", (x,)))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not up[cs.dist[x][z]] >> sg.add[cs.dist[x][y]][cs.dist[y][z]] & 1:
                    out.append(AxiomViolation("triangle", (x, y, z)))
    return out


def ball_r(cs: ContinuitySpace, x: int, r: int) -> int:
    """Mask of the points within distance r of x under the derived order."""
    cs.space.check_point(x)
    if r not in cs.positives.members:
        raise ValueError(f"radius {r} is not a positive element")
    add = cs.semigroup.add
    return _mask(y for y in cs.space.points() if r in add[cs.dist[x][y]])


def to_topology_kopperman(cs: ContinuitySpace) -> Topology:
    """Oracle: opens are the sets containing a positive-radius ball around
    each point, found by testing all 2^n subsets; they are closure-checked,
    and then generate the topology they are."""
    n = cs.space.n
    balls = {(x, r): ball_r(cs, x, r)
             for x in range(n) for r in cs.positives.members}
    opens = []
    for u in range(1 << n):
        if all(not u >> x & 1
               or any(balls[x, r] & ~u == 0 for r in cs.positives.members)
               for x in range(n)):
            opens.append(u)
    violations = check_topology(cs.space, opens)
    if violations:
        raise AssertionError(f"generated opens fail closure: {violations[0]}")
    return generate_from_subbase(cs.space, opens)


def lift_quasifamily(q: QuasiFamily) -> ContinuitySpace:
    """The {0,1}^I instance of a family: carrier 2^|I| under coordinatewise
    max, all elements positive, distance the vector of coordinate distances.

    The output is re-verified against every semigroup, positives, and
    distance axiom before being returned.  A family with no index, whose
    carrier 2^0 has zero equal to infinity and so is no value semigroup,
    and a carrier above `SEMIGROUP_MAX_SIZE`, 7 or more indices, are
    refused before the carrier is built.
    """
    k = len(q.indices)
    if k == 0:
        raise ValueError("carrier 2^0 has zero equal to infinity")
    if 1 << k > SEMIGROUP_MAX_SIZE:
        raise ValueError(f"carrier 2^{k} larger than {SEMIGROUP_MAX_SIZE}")
    sg = semigroup_zero_one_pow(k)
    positives = PositiveSet(sg, tuple(range(sg.size)))
    n = q.space.n
    # Coordinate i of d(x, y) is 1 where y is outside zero row x of index i.
    dist = tuple(
        tuple(sum(1 << i for i, rows in enumerate(q.rows) if not rows[x] >> y & 1)
              for y in range(n))
        for x in range(n))
    cs = ContinuitySpace(q.space, sg, positives, dist)
    problems = (check_value_semigroup(sg) + check_positives(positives)
                + check_continuity_space(cs))
    if problems:
        raise AssertionError(f"lifted structure fails an axiom: {problems[0]}")
    return cs


def semigroup_zero_one_pow(k: int) -> ValueSemigroup:
    """The {0,1}^k carrier under coordinatewise max."""
    size = 1 << k
    labels = tuple("".join("1" if e >> i & 1 else "0" for i in range(k)) or "0"
                   for e in range(size))
    add = tuple(tuple(a | b for b in range(size)) for a in range(size))
    return ValueSemigroup(labels, add, zero=0, infinity=size - 1)
