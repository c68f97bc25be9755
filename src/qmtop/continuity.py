"""Value semigroups, sets of positives, and the distance-to-topology
construction over them, together with the {0,1}^I instance that a
quasimetric family lifts to.
"""

from __future__ import annotations

from ._kernels import members, transpose
from .core import (
    InvariantViolation,
    PointSpace,
    PositiveSet,
    QuasiFamily,
    Topology,
    ValueSemigroup,
    record,
)
from .topology import check_topology, generate_from_subbase

SEMIGROUP_MAX_SIZE = 64


@record
class AxiomViolation:
    axiom: str
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.axiom} fails at {self.witness}"

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness)}


def _mask(points) -> int:
    """The mask of some points, each counted once."""
    return sum(1 << p for p in set(points))


def _order(sg: ValueSemigroup) -> tuple[list[int], list[int]]:
    """The derived order, a <= b iff a + x = b for some x, as row masks:
    up[a] masks {a + x : x in the carrier}, and down[b] {a : a <= b}."""
    up = [_mask(row) for row in sg.add]
    return up, transpose(up)


def _meet(down: list[int], a: int, b: int) -> int | None:
    """The lower bound of a and b whose down-set holds every other one."""
    lower = down[a] & down[b]
    return next((c for c in members(lower) if down[c] & lower == lower), None)


def check_value_semigroup(candidate: ValueSemigroup) -> list[AxiomViolation]:
    """Brute-force verification of every value-semigroup axiom.

    Covers the semigroup laws, the identity and the absorbing element, then
    antisymmetry of the derived order, unique halving, existence of binary
    meets, and distributivity of addition over meets.  Violations carry the
    witness tuple that reproduces them.
    """
    m = candidate.size
    if m > SEMIGROUP_MAX_SIZE:
        raise ValueError(f"carrier larger than {SEMIGROUP_MAX_SIZE}")
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
    up, down = _order(candidate)
    for a in range(m):
        for b in members(up[a] & down[a] & ~(1 << a)):
            out.append(AxiomViolation("antisymmetry", (a, b)))
    for a in range(m):
        halves = tuple(b for b in range(m) if add[b][b] == a)
        if len(halves) != 1:
            out.append(AxiomViolation("unique-halving", (a,) + halves))
    meet = [[_meet(down, a, b) for b in range(m)] for a in range(m)]
    for a in range(m):
        for b in range(a, m):
            if meet[a][b] is None:
                out.append(AxiomViolation("meet-exists", (a, b)))
    for a in range(m):
        for b in range(m):
            if meet[a][b] is None:
                continue
            left = add[meet[a][b]]
            for c in range(m):
                right = meet[add[a][c]][add[b][c]]
                if right is not None and left[c] != right:
                    out.append(AxiomViolation("meet-distributivity", (a, b, c)))
    return out


def check_positives(p: PositiveSet) -> list[AxiomViolation]:
    """Brute-force verification of the set-of-positives axioms.

    Assumes the underlying semigroup is valid (meets and halves exist);
    checks meet-closure, upward closure, closure under halving, and the
    order-separation property.
    """
    sg = p.semigroup
    m = sg.size
    up, down = _order(sg)
    # Witnesses are listed in this set's iteration order.
    positives = set(p.members)
    mask = _mask(positives)
    out = []
    for r in positives:
        for s in positives:
            meet = _meet(down, r, s)
            if meet is not None and meet not in positives:
                out.append(AxiomViolation("meet-closed", (r, s, meet)))
    for r in positives:
        for a in members(up[r] & ~mask):
            out.append(AxiomViolation("upward-closed", (r, a)))
    for r in positives:
        halves = [b for b in range(m) if sg.add[b][b] == r]
        for b in halves:
            if b not in positives:
                out.append(AxiomViolation("halving-closed", (r, b)))
    # The sums b + r over every positive r, one mask per b.
    sums = [_mask(sg.add[b][r] for r in positives) for b in range(m)]
    for a in range(m):
        for b in range(m):
            if sums[b] & ~up[a] == 0 and not up[a] >> b & 1:
                out.append(AxiomViolation("order-separation", (a, b)))
    return out


# ---------------------------------------------------------------------------
# Continuity spaces


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
    """Opens are the sets containing a positive-radius ball around each point;
    they are closure-checked, and then generate the topology they are."""
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
