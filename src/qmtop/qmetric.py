"""Quasimetric-family machinery: axioms, balls, the generated topology,
right, left, topological and product convergence, separation, and
statistical convergence through natural density.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain, compress
from operator import and_, or_
from typing import TYPE_CHECKING, Union

from . import _tails
from ._kernels import pack, transpose, triangles
from .core import (
    Complement,
    DirectedNet,
    FiniteSet,
    IndexSetDescriptor,
    QuasiFamily,
    ResidueClasses,
    SequenceSpec,
    SpaceMismatchError,
    Squares,
    PowersOfTwo,
    Topology,
    UnionSet,
    members,
    record,
)
from .topology import generate_from_subbase, separating_pairs

if TYPE_CHECKING:
    # Imported where a `Fraction` is built: `fractions` loads `decimal` and
    # `numbers`, which only the statistical verdict needs.
    from fractions import Fraction

EMPIRICAL_HORIZONS = (10**3, 10**4, 10**5, 10**6)
# The last position `converges_topologically` evaluates directly to
# cross-check a positive verdict on a sequence; read at each call, so tests
# can shorten it.
CROSS_CHECK_HORIZON = 100_000
DENSITY_MODULUS_CAP = 10**6


# ---------------------------------------------------------------------------
# Axioms and balls


@record
class QuasiViolation:
    kind: str
    index: str
    points: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind} at index {self.index!r}, points {self.points}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "index": self.index, "points": list(self.points)}


def check_quasifamily(q: QuasiFamily) -> list[QuasiViolation]:
    """Every reflexivity or triangle failure, with index and witness points.

    An entry pattern d(x,z)=1, d(x,y)=d(y,z)=0 is the only way a {0,1}
    distance can break the triangle inequality, and it says exactly that
    the zero relation fails to be transitive: z is in row y but not in row
    x for some y in row x (`_kernels.triangles`).
    """
    out = []
    for label, rows in zip(q.indices, q.rows):
        for x, row in enumerate(rows):
            if not row >> x & 1:
                out.append(QuasiViolation("nonzero-self-distance", label, (x,)))
        out += [QuasiViolation("triangle", label, points) for points in triangles(rows)]
    return out


def ball_meet(q: QuasiFamily) -> list[int]:
    """Row x is the intersection of the zero rows at x over every index (the
    full set for an empty family): x's minimal neighbourhood in the
    generated topology."""
    meet = [q.space.full_mask] * q.space.n
    for rows in q.rows:
        meet = list(map(and_, meet, rows))
    return meet


def to_topology(q: QuasiFamily) -> Topology:
    """The topology generated by the family.

    A set is open iff around each of its points the intersection of all
    balls stays inside it (with a finite index set, intersecting everything
    is the weakest finite-subfamily test), so its rows are those
    intersections, `ball_meet`.  The rows are also computed as the subbase
    closure of all balls, the intersection of every ball holding each point,
    and the two must agree: by transitivity a ball at y that holds x holds
    the ball at x.
    """
    generated = generate_from_subbase(q.space, set(chain.from_iterable(q.rows)))
    if list(generated.rows) != ball_meet(q):
        raise AssertionError("ball-intersection rows differ from subbase closure")
    return generated


# ---------------------------------------------------------------------------
# Convergence

Carrier = Union[SequenceSpec, DirectedNet]


def _check_space(s: Carrier, q: QuasiFamily | Topology) -> None:
    if not s.space.compatible(q.space):
        raise SpaceMismatchError("sequence/net space differs from the family's")


def _tail_masks(s: Carrier) -> tuple[int, ...]:
    """The tails of a sequence or net, as point masks: the carrier is
    eventually inside a set iff some tail is.  A described sequence has one,
    the values it takes past its settle bound (`_tails.tail_types`); a net
    has one per element, the points it takes at or after that element."""
    if isinstance(s, DirectedNet):
        points = [1 << v for v in s.assignment]
        return tuple([reduce(or_, compress(points, row)) for row in s.order])
    return (_tails.tail_types(s).recurrent,)


def _eventually_in(tails: tuple[int, ...], mask: int) -> bool:
    """Whether some tail of `_tail_masks` lies inside the mask."""
    return any(not tail & ~mask for tail in tails)


def right_converges(s: Carrier, q: QuasiFamily, x: int) -> bool:
    """For every index, d_i(x, s_k) vanishes from some position on."""
    _check_space(s, q)
    q.space.check_point(x)
    tails = _tail_masks(s)
    return all(_eventually_in(tails, rows[x]) for rows in q.rows)


def left_converges(s: Carrier, q: QuasiFamily, x: int) -> bool:
    """For every index, d_i(s_k, x) vanishes from some position on."""
    _check_space(s, q)
    q.space.check_point(x)
    # The left ball at x is the column {y : x in row y}.  A sequence, or a
    # net (any two elements have an upper bound), is eventually inside each
    # of finitely many sets iff it is eventually inside their intersection,
    # the column of the meet.
    return _eventually_in(_tail_masks(s), transpose(ball_meet(q))[x])


def is_right_cauchy(s: Carrier, q: QuasiFamily) -> bool:
    """d_i between later and still-later terms eventually vanishes, per index.

    For a described sequence this holds iff d_i is zero on every ordered pair
    of values that recur unboundedly often: each such pair occurs at
    arbitrarily late positions in either order.  For a net it holds iff some
    element a0 has, at every element a after it, the tail at a inside the
    zero row of the point taken at a.
    """
    _check_space(s, q)
    tails = _tail_masks(s)
    if isinstance(s, DirectedNet):
        return all(any(all(not tails[a] & ~rows[s.assignment[a]]
                           for a, later in enumerate(after) if later)
                       for after in s.order)
                   for rows in q.rows)
    recur, = tails
    return all(rows[a] & recur == recur for rows in q.rows for a in members(recur))


def product_converges(s: Carrier, q: QuasiFamily, x: int) -> bool:
    """Coordinatewise eventual vanishing of the distance vector d(x, s_k).

    With finitely many coordinates this is one eventual-membership question
    for the intersection of all balls at x; the answer is asserted to agree
    with the per-coordinate route taken by `right_converges`.
    """
    _check_space(s, q)
    q.space.check_point(x)
    verdict = _eventually_in(_tail_masks(s), ball_meet(q)[x])
    if verdict != right_converges(s, q, x):
        raise AssertionError("product and per-coordinate convergence disagree")
    return verdict


def converges_topologically(s: Carrier, t: Topology, x: int) -> bool:
    """Whether the sequence or net is eventually inside the minimal
    neighbourhood of x.

    A sequence's verdict is decided exactly from the rule structure, and
    positions up to `CROSS_CHECK_HORIZON` cross-check a positive one by
    direct evaluation.  A net's is a finite computation over its tails, with
    no symbolic step to cross-check.
    """
    _check_space(s, t)
    t.space.check_point(x)
    good = t.rows[x]
    decided = _eventually_in(_tail_masks(s), good)
    if isinstance(s, SequenceSpec):
        _tails.assert_tail_consistent(s, good, decided, CROSS_CHECK_HORIZON)
    return decided


# ---------------------------------------------------------------------------
# Separation predicates: the provable variants and the literal ones


def separation_pair(n: int, indices) -> tuple[list[int], int]:
    """The two relations every separation predicate reads, from the zero
    rows of each index of a family on n points: the rows meet[x] = {y :
    d_k(x, y) = 0 for every k} (`ball_meet`), and sym = {(x, y) : d_k(x, y)
    = d_k(y, x) = 1 for some k}, packed as `pack` does: the pairs that no
    index's packed zero pairs, or their transpose, cover."""
    square = (1 << n * n) - 1
    meet, covered = [(1 << n) - 1] * n, square
    for rows in indices:
        meet = list(map(and_, meet, rows))
        covered &= pack(rows) | pack(transpose(rows))
    return meet, ~covered & square


# Every separation predicate: (the relation it reads, the direct axiom it is
# offered for).  The relation is a direct axiom on the meet rows of
# `separation_pair`, or "sym".  Some index separates x from y iff y is
# outside meet[x] (T1); t0_unordered asks that either way round (T0); R5
# with j = i is R4 (sym).  Names that read one relation are one function.
PREDICATES = {
    "t0": ("t0", "t0"),
    "t1": ("t1", "t1"),
    "t2": ("t2", "t2"),
    "t0_unordered": ("t0", "t0"),
    "t1_amended": ("t1", "t1"),
    "literal_r3": ("t1", "t0"),
    "literal_r4": ("sym", "t1"),
    "literal_r5": ("sym", "t2"),
}


def predicate(name: str) -> tuple[str, str]:
    """A separation predicate's `PREDICATES` entry."""
    if name not in PREDICATES:
        raise ValueError(f"unknown predicate {name!r}")
    return PREDICATES[name]


def predicate_pairs(name: str, meet, sym: int) -> int:
    """The packed ordered pairs of distinct points at which a separation
    predicate holds, read off a family's `separation_pair`."""
    reads = predicate(name)[0]
    return sym if reads == "sym" else separating_pairs(meet, reads)


def sep_metric(q: QuasiFamily, mode: str) -> bool:
    """A separation predicate at every ordered pair of distinct points
    (t0_unordered is symmetric, so this is every unordered pair).  The
    `literal_*` predicates keep the shared-index, both-directions form
    unchanged, which is what the discrepancy search audits.
    """
    n = q.space.n
    return predicate_pairs(mode, *separation_pair(n, q.rows)).bit_count() == n * (n - 1)


# ---------------------------------------------------------------------------
# Natural density


@record
class DensityValue:
    """Natural density of a described index set.

    kind "exact" carries the density as a reduced fraction; "zero_by_bound"
    means the counting function is dominated by an explicit vanishing bound;
    "unknown" means the descriptor algebra gave up (with the reason).
    """

    kind: str
    value: Fraction | None = None
    bound: str | None = None
    reason: str | None = None

    @classmethod
    def exact(cls, value: Fraction) -> "DensityValue":
        if not 0 <= value <= 1:
            raise ValueError("density must lie in [0, 1]")
        return cls("exact", value=value)

    @classmethod
    def zero_by_bound(cls, bound: str) -> "DensityValue":
        from fractions import Fraction
        return cls("zero_by_bound", value=Fraction(0), bound=bound)

    @classmethod
    def unknown(cls, reason: str) -> "DensityValue":
        return cls("unknown", reason=reason)

    @property
    def is_zero(self) -> bool:
        return self.kind != "unknown" and self.value == 0

    def to_json(self) -> dict:
        if self.kind == "exact":
            return {"kind": "exact", "numerator": self.value.numerator,
                    "denominator": self.value.denominator}
        if self.kind == "zero_by_bound":
            return {"kind": "zero_by_bound", "bound": self.bound}
        return {"kind": "unknown", "reason": self.reason}


class _DensityUnknown(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _density_modulus(ds: IndexSetDescriptor) -> int:
    """The lcm of the residue moduli in ds, refused once it passes
    `DENSITY_MODULUS_CAP` under a complement or a union."""
    if isinstance(ds, ResidueClasses):
        return ds.modulus
    if isinstance(ds, Complement):
        modulus = _density_modulus(ds.of)
        if modulus > DENSITY_MODULUS_CAP:
            raise _DensityUnknown(f"complemented modulus exceeds {DENSITY_MODULUS_CAP}")
        return modulus
    modulus = 1
    for part in ds.parts if isinstance(ds, UnionSet) else ():
        modulus = math.lcm(modulus, _density_modulus(part))
        if modulus > DENSITY_MODULUS_CAP:
            raise _DensityUnknown(f"lcm of union moduli exceeds {DENSITY_MODULUS_CAP}")
    return modulus


def natural_density(ds: IndexSetDescriptor) -> DensityValue:
    """Density of a described set of positions.

    Finite sets, squares and powers of two have density zero, so up to
    density zero the set is its generic tail types: the residues r mod M
    whose type (r, not a square, not a power of two) lies inside it
    (`_tails.generic_types`), and the density is their share of M.  When it
    holds no generic type it lies inside its finite sets, squares and
    powers of two, and the result is zero, certified by their summed
    counting bounds.  A lone residue set needs no mask, so its modulus has
    no cap.
    """
    from fractions import Fraction
    if isinstance(ds, ResidueClasses):
        count, modulus, parts = len(ds.residues), ds.modulus, [ds]
    else:
        try:
            modulus = _density_modulus(ds)
        except _DensityUnknown as e:
            return DensityValue.unknown(e.reason)
        count, parts = _tails.generic_types(ds, modulus)
    if count:
        return DensityValue.exact(Fraction(count, modulus))
    sqrt_terms = sum(isinstance(part, Squares) for part in parts)
    log_terms = sum(isinstance(part, PowersOfTwo) for part in parts)
    if not (sqrt_terms or log_terms):
        return DensityValue.exact(Fraction(0))
    terms = []
    if sqrt_terms:
        terms.append("isqrt(n)" if sqrt_terms == 1 else f"{sqrt_terms}*isqrt(n)")
    if log_terms:
        term = "(floor(log2(n)) + 1)"
        terms.append(term if log_terms == 1 else f"{log_terms}*{term}")
    finite_bound = sum(len(part.members) for part in parts if isinstance(part, FiniteSet))
    if finite_bound:
        terms.append(str(finite_bound))
    return DensityValue.zero_by_bound("count(k <= n) <= " + " + ".join(terms))


# ---------------------------------------------------------------------------
# Statistical convergence


@record
class IndexDensityReport:
    index: str
    deviation: IndexSetDescriptor
    density: DensityValue
    empirical: tuple[tuple[int, int], ...]  # (horizon, deviation count)


@record
class StatResult:
    verdict: str  # "true" | "false" | "undecided"
    per_index: tuple[IndexDensityReport, ...]


def _difference(ds: IndexSetDescriptor, earlier: list[IndexSetDescriptor]):
    if not earlier:
        return ds
    shadow = earlier[0] if len(earlier) == 1 else UnionSet(tuple(earlier))
    return Complement(UnionSet((Complement(ds), shadow)))


def deviation_descriptor(s: SequenceSpec, deviates) -> IndexSetDescriptor:
    """Positions whose value deviates, per `deviates(point) -> bool`.

    Built rule by rule: each deviating rule contributes its index set minus
    the earlier rules' sets (first match wins), and a deviating default
    contributes the complement of all rule sets.
    """
    parts: list[IndexSetDescriptor] = []
    earlier: list[IndexSetDescriptor] = []
    for ds, point in s.rules:
        if deviates(point):
            parts.append(_difference(ds, earlier))
        earlier.append(ds)
    if deviates(s.default):
        parts.append(Complement(UnionSet(tuple(earlier))) if earlier
                     else Complement(FiniteSet(())))
    if not parts:
        return FiniteSet(())
    return parts[0] if len(parts) == 1 else UnionSet(tuple(parts))


def stat_converges(s: SequenceSpec, q: QuasiFamily, x: int) -> StatResult:
    """Statistical convergence: each index's deviation set has density zero.

    The deviation set is computed symbolically from the rules and its density
    decided by `natural_density`; empirical prefix counts over the horizon
    ladder `EMPIRICAL_HORIZONS` cross-check the symbolic work by direct
    evaluation.
    """
    _check_space(s, q)
    q.space.check_point(x)
    # The point masks are disjoint, so a deviation count is the sum of the
    # deviating points' counts, taken once per point and horizon.
    counts = [[(positions & ((2 << h) - 1)).bit_count() for h in EMPIRICAL_HORIZONS]
              for positions in _tails.evaluate_range(s, max(EMPIRICAL_HORIZONS))]
    reports = []
    any_positive = False
    any_unknown = False
    for label, rows in zip(q.indices, q.rows):
        row = rows[x]
        dev = deviation_descriptor(s, lambda point: not row >> point & 1)
        density = natural_density(dev)
        far = [c for p, c in enumerate(counts) if not row >> p & 1]
        empirical = tuple((h, sum(c[i] for c in far)) for i, h in enumerate(EMPIRICAL_HORIZONS))
        reports.append(IndexDensityReport(label, dev, density, empirical))
        if density.kind == "unknown":
            any_unknown = True
        elif not density.is_zero:
            any_positive = True
    verdict = "false" if any_positive else ("undecided" if any_unknown else "true")
    return StatResult(verdict, tuple(reports))
