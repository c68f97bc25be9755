"""From a topology to its quasimetric family and back, plus the exhaustive
search for families where a literal separation condition and the direct
axiom disagree.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import _kernels, qmetric
from .core import PointSpace, QuasiFamily, Topology, members, members_text, record
from .topology import enumerate_preorders  # noqa: F401  (an import site perfbench patches)


def _canonical_rows(space: PointSpace, opens) -> tuple[tuple[int, ...], ...]:
    """The zero rows of d_U for each open U: d_U(x, y) is 0 iff x in U
    implies y in U, so the zero row of x is U when x is in U and the whole
    space otherwise."""
    full = space.full_mask
    columns = [[u if u & bit else full for u in opens] for bit in [1 << x for x in space.points()]]
    return tuple(zip(*columns))


def canonical_family(t: Topology) -> QuasiFamily:
    """The family indexed by the opens of a topology, the up-sets of its
    rows, each labelled by the text of its members."""
    opens = _kernels.upsets(t.rows)
    return QuasiFamily(t.space, tuple(map(members_text, opens)), _canonical_rows(t.space, opens))


@record
class RoundtripReport:
    equal: bool
    missing: tuple[int, ...]
    extra: tuple[int, ...]


def roundtrip(t: Topology) -> RoundtripReport:
    """Regenerate the topology from its canonical family and compare exactly;
    nothing reads that family's labels, so the open masks index it.  Only a
    failure lists the regenerated opens, for the opens missing or extra."""
    opens = _kernels.upsets(t.rows)
    back = qmetric.to_topology(QuasiFamily(t.space, tuple(opens),
                                           _canonical_rows(t.space, opens))).rows
    if back == t.rows:
        return RoundtripReport(True, (), ())
    original, regenerated = set(opens), set(_kernels.upsets(back))
    return RoundtripReport(False, tuple(sorted(original - regenerated)),
                           tuple(sorted(regenerated - original)))


# ---------------------------------------------------------------------------
# Discrepancy search


def discrepancy_pairs(q: QuasiFamily, pred_a: str, pred_b: str) -> list[dict]:
    """Ordered pairs at which the two predicates disagree on this family.
    The topology it generates, a second route, must have its meet as rows."""
    meet, sym = qmetric.separation_pair(q.space.n, q.rows)
    if list(qmetric.to_topology(q).rows) != meet:
        raise AssertionError("generated topology's rows differ from the family's meet")
    return disagreeing_pairs(meet, sym, pred_a, pred_b)


def disagreeing_pairs(meet, sym: int, pred_a: str, pred_b: str) -> list[dict]:
    """Ordered pairs, ascending, at which the two predicates disagree, read
    off a family's `qmetric.separation_pair`."""
    n = len(meet)
    a, b = (qmetric.predicate_pairs(name, meet, sym) for name in (pred_a, pred_b))
    return [{"pair": [p // n, p % n], pred_a: bool(a >> p & 1), pred_b: bool(b >> p & 1)}
            for p in members(a ^ b)]


def _family_candidates(n: int, max_indices: int):
    """The zero rows of families of independent preorder-induced distances,
    one tuple of rows per index, in canonical order.

    A {0,1} distance is a quasimetric iff its zero relation is a preorder,
    so enumerating per-index preorders covers exactly the valid families.
    Preorders are in descending order of their zero rows, which is
    ascending order of their distance rows ({y : d(x, y) = 1}); families
    are ordered by index count then lexicographically over their keys.
    """
    preorders = sorted(_kernels.preorder_rows(n), reverse=True)
    for count in range(1, max_indices + 1):
        yield from combinations_with_replacement(preorders, count)


def find_discrepancy(pred_a: str, pred_b: str, n: int,
                     max_indices: int) -> QuasiFamily | None:
    """First family (smallest point count, fewest indices, smallest distance
    rows) where the two predicates disagree at some ordered pair of distinct
    points: the first of `_family_candidates` on which they do, indexed
    i0, i1, ...

    Predicates that read one relation (`qmetric.PREDICATES`) never disagree;
    every other pair does on a one-index family of at most 3 points and on
    one of 2 points and at most 3 indices, so the scan, from 2 points since
    one point has no pair, stops within 14 candidates whatever the bounds.
    Each candidate is read off its `qmetric.separation_pair`, and only the
    witness is made a family and re-checked against the topology it generates.
    """
    reads = [qmetric.predicate(name)[0] for name in (pred_a, pred_b)]
    PointSpace(n)  # the point bound, 1..MAX_POINTS
    if max_indices < 1:
        raise ValueError(f"discrepancy search needs at least 1 index, got {max_indices}")
    if reads[0] == reads[1]:
        return None
    for points in range(2, n + 1):
        for rows in _family_candidates(points, max_indices):
            if disagreeing_pairs(*qmetric.separation_pair(points, rows), pred_a, pred_b):
                q = QuasiFamily(PointSpace(points), tuple(f"i{k}" for k in range(len(rows))),
                                rows)
                if not discrepancy_pairs(q, pred_a, pred_b):
                    raise AssertionError("candidate scan returned a family on which "
                                         f"{pred_a} and {pred_b} agree")
                return q
    return None
