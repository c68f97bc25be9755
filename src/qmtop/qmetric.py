"""Quasimetric-family machinery: axioms, balls, the generated topology,
right/left convergence, metric continuity and separation, and statistical
convergence through natural density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import _tails
from ._kernels import upsets
from .core import (
    Complement,
    DirectedNet,
    FiniteSet,
    IndexSetDescriptor,
    PointMap,
    PointSet,
    QuasiFamily,
    ResidueClasses,
    SequenceSpec,
    SpaceMismatchError,
    Squares,
    PowersOfTwo,
    Topology,
    UnionSet,
)
from .topology import generate_from_subbase

SEP_MODES = ("t0_unordered", "t1_amended", "literal_r3", "literal_r4", "literal_r5")
EMPIRICAL_HORIZONS = (10**3, 10**4, 10**5, 10**6)
DENSITY_MODULUS_CAP = 10**6


# ---------------------------------------------------------------------------
# Axioms and balls


@dataclass(frozen=True, slots=True)
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

    An entry pattern d(x,z)=1, d(x,y)=d(y,z)=0 is the only way a {0,1} matrix
    can break the triangle inequality, and it says exactly that the
    zero-entry relation fails to be transitive.
    """
    out = []
    n = q.space.n
    for label, m in zip(q.indices, q.matrices):
        for x in range(n):
            if m[x][x] != 0:
                out.append(QuasiViolation("nonzero-self-distance", label, (x,)))
        for x in range(n):
            for y in range(n):
                if m[x][y] == 0:
                    for z in range(n):
                        if m[y][z] == 0 and m[x][z] == 1:
                            out.append(QuasiViolation("triangle", label, (x, y, z)))
    return out


def ball_masks(q: QuasiFamily) -> list[list[int]]:
    """ball_masks(q)[k][x] masks the zero-set {y : d_k(x, y) = 0}."""
    n = q.space.n
    out = []
    for m in q.matrices:
        out.append([sum(1 << y for y in range(n) if m[x][y] == 0) for x in range(n)])
    return out


def ball_meet(q: QuasiFamily, balls: list[list[int]]) -> list[int]:
    """Row x is the intersection of the balls `ball_masks(q)` at x (the full
    set for an empty family): x's minimal neighbourhood in the generated
    topology."""
    meet = [q.space.full_mask] * q.space.n
    for per_point in balls:
        meet = [m & b for m, b in zip(meet, per_point)]
    return meet


def ball(q: QuasiFamily, index: str, x: int) -> PointSet:
    """The zero-set of one coordinate at a base point; always contains x."""
    q.space.check_point(x)
    m = q.matrix(index)
    mask = sum(1 << y for y in range(q.space.n) if m[x][y] == 0)
    return PointSet(q.space, mask)


def to_topology(q: QuasiFamily) -> Topology:
    """The topology generated by the family.

    A set is open iff around each of its points the intersection of all
    balls stays inside it (with a finite index set, intersecting everything
    is the weakest finite-subfamily test), so the opens are the up-sets of
    those intersections.  The result is also computed as the
    subbase-generated topology of all balls and the two must agree.
    """
    balls = ball_masks(q)
    direct = Topology.from_masks(q.space, upsets(ball_meet(q, balls)))
    subbase = [PointSet(q.space, m) for per_point in balls for m in per_point]
    generated = generate_from_subbase(q.space, subbase)
    if direct.open_masks != generated.open_masks:
        raise AssertionError("ball-intersection opens differ from subbase closure")
    return direct


# ---------------------------------------------------------------------------
# Convergence

Carrier = Union[SequenceSpec, DirectedNet]


def _check_space(s: Carrier, q: QuasiFamily) -> None:
    if not s.space.compatible(q.space):
        raise SpaceMismatchError("sequence/net space differs from the family's")


def _net_eventually(net: DirectedNet, predicate) -> bool:
    m = len(net.elements)
    return any(all(predicate(net.assignment[b])
                   for b in range(m) if net.order[a][b])
               for a in range(m))


def right_converges(s: Carrier, q: QuasiFamily, x: int) -> bool:
    """For every index, d_i(x, s_k) vanishes from some position on."""
    _check_space(s, q)
    q.space.check_point(x)
    if isinstance(s, DirectedNet):
        return all(_net_eventually(s, lambda v, row=m[x]: row[v] == 0)
                   for m in q.matrices)
    return all(_tails.eventually_in(s, mask[x]) for mask in ball_masks(q))


def left_converges(s: Carrier, q: QuasiFamily, x: int) -> bool:
    """For every index, d_i(s_k, x) vanishes from some position on."""
    _check_space(s, q)
    q.space.check_point(x)
    n = q.space.n
    if isinstance(s, DirectedNet):
        return all(_net_eventually(s, lambda v, m=m: m[v][x] == 0)
                   for m in q.matrices)
    left_masks = [sum(1 << y for y in range(n) if m[y][x] == 0) for m in q.matrices]
    return all(_tails.eventually_in(s, mask) for mask in left_masks)


def is_right_cauchy(s: Carrier, q: QuasiFamily) -> bool:
    """d_i between later and still-later terms eventually vanishes, per index.

    For a described sequence this holds iff d_i is zero on every ordered pair
    of values that recur unboundedly often: each such pair occurs at
    arbitrarily late positions in either order.
    """
    _check_space(s, q)
    if isinstance(s, DirectedNet):
        m_count = len(s.elements)

        def tail_ok(m, a0):
            for a in range(m_count):
                if not s.order[a0][a]:
                    continue
                for b in range(m_count):
                    if s.order[a][b] and m[s.assignment[a]][s.assignment[b]] != 0:
                        return False
            return True

        return all(any(tail_ok(m, a0) for a0 in range(m_count)) for m in q.matrices)
    recur = _tails.recurrent_values(s)
    return all(m[a][b] == 0 for m in q.matrices for a in recur for b in recur)


def product_converges(s: SequenceSpec, q: QuasiFamily, x: int) -> bool:
    """Coordinatewise eventual vanishing of the distance vector d(x, s_k).

    With finitely many coordinates this is one eventual-membership question
    for the intersection of all balls at x; the answer is asserted to agree
    with the per-coordinate route taken by `right_converges`.
    """
    _check_space(s, q)
    q.space.check_point(x)
    verdict = _tails.eventually_in(s, ball_meet(q, ball_masks(q))[x])
    if verdict != right_converges(s, q, x):
        raise AssertionError("product and per-coordinate convergence disagree")
    return verdict


def metric_continuous_at(f: PointMap, q: QuasiFamily, p: QuasiFamily, x: int) -> bool:
    """For each codomain index some domain ball at x maps into the codomain ball."""
    if not f.domain.compatible(q.space) or not f.codomain.compatible(p.space):
        raise SpaceMismatchError("map spaces do not match the families")
    f.domain.check_point(x)
    domain_balls = ball_masks(q)
    codomain_balls = ball_masks(p)
    fx = f(x)
    for j in range(len(p.indices)):
        pre = f.preimage_mask(codomain_balls[j][fx])
        if not any(domain_balls[i][x] & ~pre == 0 for i in range(len(q.indices))):
            return False
    return True


# ---------------------------------------------------------------------------
# Separation predicates: the provable variants and the literal ones


def sep_pair(q: QuasiFamily, mode: str, x: int, y: int) -> bool:
    """One separation condition, evaluated at a single ordered pair."""
    mats = q.matrices
    if mode == "t0_unordered":
        return any(m[x][y] == 1 or m[y][x] == 1 for m in mats)
    if mode in ("t1_amended", "literal_r3"):
        return any(m[x][y] == 1 for m in mats)
    if mode in ("literal_r4", "literal_r5"):
        # R5 asks for indices i and j both separating the pair in both
        # directions; taking j = i shows it is exactly R4.
        return any(m[x][y] == 1 and m[y][x] == 1 for m in mats)
    raise ValueError(f"unknown separation mode {mode!r}")


def sep_metric(q: QuasiFamily, mode: str) -> bool:
    """A separation condition quantified over every distinct pair.

    `t0_unordered` asks each unordered pair to be separated in at least one
    direction; the remaining modes read "every distinct pair" as every
    ordered pair.  The `literal_*` modes keep the shared-index, both-
    directions form unchanged, which is what the discrepancy search audits.
    """
    if mode not in SEP_MODES:
        raise ValueError(f"unknown separation mode {mode!r}")
    n = q.space.n
    if mode == "t0_unordered":
        return all(sep_pair(q, mode, x, y) for x in range(n) for y in range(x + 1, n))
    return all(sep_pair(q, mode, x, y) for x in range(n) for y in range(n) if x != y)


# ---------------------------------------------------------------------------
# Natural density


@dataclass(frozen=True, slots=True)
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


@dataclass
class _NormalForm:
    # The set equals {k : k mod modulus in residues} up to a density-zero
    # correction bounded by the recorded sparse components.
    modulus: int
    residues: frozenset[int]
    sqrt_terms: int
    log_terms: int
    finite_bound: int


def _lift(residues: frozenset[int], small: int, big: int) -> frozenset[int]:
    step = big // small
    return frozenset(r + t * small for r in residues for t in range(step))


def _density_nf(ds: IndexSetDescriptor) -> _NormalForm:
    if isinstance(ds, FiniteSet):
        return _NormalForm(1, frozenset(), 0, 0, len(ds.members))
    if isinstance(ds, ResidueClasses):
        return _NormalForm(ds.modulus, frozenset(ds.residues), 0, 0, 0)
    if isinstance(ds, Squares):
        return _NormalForm(1, frozenset(), 1, 0, 0)
    if isinstance(ds, PowersOfTwo):
        return _NormalForm(1, frozenset(), 0, 1, 0)
    if isinstance(ds, Complement):
        nf = _density_nf(ds.of)
        if nf.modulus > DENSITY_MODULUS_CAP:
            raise _DensityUnknown(f"complemented modulus exceeds {DENSITY_MODULUS_CAP}")
        residues = frozenset(range(nf.modulus)) - nf.residues
        return _NormalForm(nf.modulus, residues, nf.sqrt_terms, nf.log_terms,
                           nf.finite_bound)
    if isinstance(ds, UnionSet):
        out = _NormalForm(1, frozenset(), 0, 0, 0)
        for part in ds.parts:
            nf = _density_nf(part)
            modulus = math.lcm(out.modulus, nf.modulus)
            if modulus > DENSITY_MODULUS_CAP:
                raise _DensityUnknown(
                    f"lcm of union moduli exceeds {DENSITY_MODULUS_CAP}")
            out = _NormalForm(
                modulus,
                _lift(out.residues, out.modulus, modulus)
                | _lift(nf.residues, nf.modulus, modulus),
                out.sqrt_terms + nf.sqrt_terms,
                out.log_terms + nf.log_terms,
                out.finite_bound + nf.finite_bound,
            )
        return out
    raise TypeError(f"not a descriptor: {ds!r}")


def natural_density(ds: IndexSetDescriptor) -> DensityValue:
    """Density of a described set of positions.

    Every descriptor normalises to a periodic part plus a density-zero
    correction (finite sets, squares, powers of two), so the density is the
    periodic part's exactly; when the correction is the whole content the
    result is zero, certified by the summed counting bounds.
    """
    try:
        nf = _density_nf(ds)
    except _DensityUnknown as e:
        return DensityValue.unknown(e.reason)
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


# ---------------------------------------------------------------------------
# Statistical convergence


@dataclass(frozen=True, slots=True)
class IndexDensityReport:
    index: str
    deviation: IndexSetDescriptor
    density: DensityValue
    empirical: tuple[tuple[int, int], ...]  # (horizon, deviation count)

    @property
    def empirical_densities(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, h) for h, c in self.empirical)


@dataclass(frozen=True, slots=True)
class StatResult:
    verdict: str  # "true" | "false" | "undecided"
    per_index: tuple[IndexDensityReport, ...]

    @property
    def converges(self) -> bool | None:
        return {"true": True, "false": False}.get(self.verdict)


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


def stat_converges(s: SequenceSpec, q: QuasiFamily, x: int,
                   horizons: tuple[int, ...] = EMPIRICAL_HORIZONS) -> StatResult:
    """Statistical convergence: each index's deviation set has density zero.

    The deviation set is computed symbolically from the rules and its density
    decided by `natural_density`; empirical prefix counts over the horizon
    ladder cross-check the symbolic work by direct evaluation.
    """
    _check_space(s, q)
    q.space.check_point(x)
    # The point masks are disjoint, so a deviation count is the sum of the
    # deviating points' counts, taken once per point and horizon.
    counts = [[(positions & ((2 << h) - 1)).bit_count() for h in horizons]
              for positions in _tails.evaluate_range(s, max(horizons))]
    reports = []
    any_positive = False
    any_unknown = False
    for label, m in zip(q.indices, q.matrices):
        row = m[x]
        dev = deviation_descriptor(s, lambda point: row[point] == 1)
        density = natural_density(dev)
        empirical = tuple((h, sum(c[i] for c, d in zip(counts, row) if d == 1))
                          for i, h in enumerate(horizons))
        reports.append(IndexDensityReport(label, dev, density, empirical))
        if density.kind == "unknown":
            any_unknown = True
        elif not density.is_zero:
            any_positive = True
    verdict = "false" if any_positive else ("undecided" if any_unknown else "true")
    return StatResult(verdict, tuple(reports))
