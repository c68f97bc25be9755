"""The axiom checkers of value semigroups and their sets of positives,
the documents `check --kind semigroup` and `check --kind positives` read.
"""

from __future__ import annotations

from ._kernels import members, transpose
from .core import PositiveSet, ValueSemigroup, record
from .topology import check_topology  # noqa: F401  (an import site perfbench patches)

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
    # Witnesses are listed with the positives ascending, as `p.members` holds them.
    positives = p.members
    mask = _mask(positives)
    out = []
    for r in positives:
        for s in positives:
            meet = _meet(down, r, s)
            if meet is not None and not mask >> meet & 1:
                out.append(AxiomViolation("meet-closed", (r, s, meet)))
    for r in positives:
        for a in members(up[r] & ~mask):
            out.append(AxiomViolation("upward-closed", (r, a)))
    for r in positives:
        halves = [b for b in range(m) if sg.add[b][b] == r]
        for b in halves:
            if not mask >> b & 1:
                out.append(AxiomViolation("halving-closed", (r, b)))
    # The sums b + r over every positive r, one mask per b.
    sums = [_mask(sg.add[b][r] for r in positives) for b in range(m)]
    for a in range(m):
        for b in range(m):
            if sums[b] & ~up[a] == 0 and not up[a] >> b & 1:
                out.append(AxiomViolation("order-separation", (a, b)))
    return out
