"""From a topology to its quasimetric family and back, plus the exhaustive
search for families where a literal separation condition and the direct
axiom disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import qmetric
from .core import PointSpace, QuasiFamily, Topology, members
from .topology import enumerate_preorders, pair_separated, specialization_preorder

METRIC_PREDICATES = qmetric.SEP_MODES
DIRECT_PREDICATES = ("t0", "t1", "t2")


def canonical_family(t: Topology) -> QuasiFamily:
    """The family indexed by the opens of a topology: d_U(x, y) is 0 iff x
    in U implies y in U, so the zero row of x is U when x is in U and the
    whole space otherwise."""
    full = t.space.full_mask
    points = t.space.points()
    return QuasiFamily(t.space,
                       tuple(json.dumps(members(u), separators=(",", ":")) for u in t.opens),
                       tuple(tuple(u if u >> x & 1 else full for x in points)
                             for u in t.opens))


@dataclass(frozen=True, slots=True)
class RoundtripReport:
    equal: bool
    missing: tuple[int, ...]
    extra: tuple[int, ...]


def roundtrip(t: Topology) -> RoundtripReport:
    """Regenerate the topology from its canonical family and compare exactly."""
    regenerated = qmetric.to_topology(canonical_family(t))
    original, back = set(t.opens), set(regenerated.opens)
    missing, extra = tuple(sorted(original - back)), tuple(sorted(back - original))
    return RoundtripReport(not missing and not extra, missing, extra)


# ---------------------------------------------------------------------------
# Discrepancy search


def _check_predicate(name: str) -> None:
    if name not in METRIC_PREDICATES and name not in DIRECT_PREDICATES:
        raise ValueError(f"unknown predicate {name!r}")


def _pair_holds(name: str, meet, sym, direct, x: int, y: int) -> bool:
    """A metric mode on a family's (meet, sym) rows, or a direct axiom on the
    minimal neighbourhood rows of its generated topology."""
    if name in DIRECT_PREDICATES:
        return pair_separated(direct, name, x, y)
    return qmetric.mode_holds(meet, sym, name, x, y)


def discrepancy_pairs(q: QuasiFamily, pred_a: str, pred_b: str) -> list[dict]:
    """Ordered pairs at which the two predicates disagree on this family."""
    direct = specialization_preorder(qmetric.to_topology(q)).rows
    return disagreeing_pairs(*qmetric.separation_pair(q), direct, pred_a, pred_b)


def disagreeing_pairs(meet, sym, direct, pred_a: str, pred_b: str) -> list[dict]:
    """Ordered pairs at which the two predicates disagree, read off a family's
    `qmetric.separation_pair` rows and the minimal neighbourhood rows of its
    generated topology."""
    _check_predicate(pred_a)
    _check_predicate(pred_b)
    out = []
    n = len(meet)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            va = _pair_holds(pred_a, meet, sym, direct, x, y)
            vb = _pair_holds(pred_b, meet, sym, direct, x, y)
            if va != vb:
                out.append({"pair": [x, y], pred_a: va, pred_b: vb})
    return out


def _preorders_by_distance(n: int) -> list[tuple[int, ...]]:
    """Zero rows of every preorder on n points, ordered by their distance
    rows ({y : d(x,y) = 1}) read as a tuple of masks, smallest first."""
    full = (1 << n) - 1
    return sorted((p.rows for p in enumerate_preorders(n)),
                  key=lambda rows: tuple(full & ~r for r in rows))


def _family_candidates(n: int, max_indices: int):
    """Families of independent preorder-induced distances in canonical order.

    A {0,1} distance is a quasimetric iff its zero relation is a preorder,
    so enumerating per-index preorders covers exactly the valid families.
    Preorders are ordered as in `_preorders_by_distance`, and families are
    ordered by index count then lexicographically over their sorted keys.
    """
    space = PointSpace(n)
    preorders = _preorders_by_distance(n)
    for count in range(1, max_indices + 1):
        for chosen in combinations_with_replacement(preorders, count):
            labels = tuple(f"i{k}" for k in range(count))
            yield QuasiFamily(space, labels, chosen)


def _meet_pair_mask(name: str, meet: int, n: int) -> int:
    """Packed ordered pairs of distinct points at which a predicate holds on
    every family with this packed meet.

    The generated topology is the Alexandrov topology of the meet, so meet
    row x is the minimal neighbourhood of x and both the direct axioms and
    the one-direction metric modes read off it.
    """
    full = (1 << n) - 1
    rows = [meet >> (x * n) & full for x in range(n)]
    out = 0
    for x in range(n):
        for y in range(n):
            if x != y and _pair_holds(name, rows, None, rows, x, y):
                out |= 1 << (x * n + y)
    return out


def _disagreement(pred_a: str, pred_b: str, zeros, n: int):
    """bad(meet, sym): whether the two predicates differ at some ordered
    pair, for arrays of packed family meets and symmetric masks.

    `literal_r4` and `literal_r5` hold exactly on the OR of the per-index
    symmetric bits; every other predicate is a table over meets, and each
    meet of preorders is itself one of the preorders.
    """
    import numpy as np

    table = np.unique(zeros)

    def pair_masks(name):
        if name in ("literal_r4", "literal_r5"):
            return None
        return np.array([_meet_pair_mask(name, z, n) for z in table.tolist()],
                        dtype=np.int64)

    masks_a, masks_b = pair_masks(pred_a), pair_masks(pred_b)

    def bad(meet, sym):
        rank = np.searchsorted(table, meet)
        a = sym if masks_a is None else masks_a[rank]
        b = sym if masks_b is None else masks_b[rank]
        return a != b

    return bad


def _first_hit(zeros, syms, bad, full: int, max_indices: int) -> list[int] | None:
    """Preorder positions of the first family, by index count and then in
    `combinations_with_replacement` order, on which `bad` holds.

    Level k lists every multiset of k positions in that order, as packed
    meet and symmetric masks plus the first position and where the rest
    sits in level k - 1 (level 0 is the empty family).  The families of
    level k starting at position i are i followed by the suffix of level
    k - 1 whose first position is at least i, so each is one vector
    operation; only the levels below `max_indices` are kept.
    """
    import numpy as np

    count = len(zeros)
    meet = np.array([full], dtype=np.int64)
    sym = np.zeros(1, dtype=np.int64)
    head = np.array([count])
    links = []  # (head, tail) of levels 1 .. k - 1
    for size in range(1, max_indices + 1):
        keep = size < max_indices
        parts = []
        for i in range(count):
            lo = int(np.searchsorted(head, i))
            m = zeros[i] & meet[lo:]
            s = syms[i] | sym[lo:]
            hit = bad(m, s)
            if hit.any():
                chosen, pos = [i], lo + int(hit.argmax())
                for h, t in reversed(links):
                    chosen.append(int(h[pos]))
                    pos = int(t[pos])
                return chosen
            if keep:
                parts.append((m, s, np.full(len(m), i), np.arange(lo, len(meet))))
        if keep:
            meet, sym, head, tail = (np.concatenate(c) for c in zip(*parts))
            links.append((head, tail))
    return None


def find_discrepancy(pred_a: str, pred_b: str, n: int,
                     max_indices: int) -> QuasiFamily | None:
    """First family (smallest point count, fewest indices, smallest distance
    rows) where the two predicates disagree at some ordered pair of distinct
    points.

    Each preorder's `qmetric.separation_pair` is packed into two ints; a
    family's meet is the AND of its indices' packed meets and its symmetric
    mask the OR of their packed symmetric masks, and both predicates are read
    off those two ints, so no candidate is built as a `QuasiFamily`.  The
    witness is re-checked on the object path.
    """
    import numpy as np

    _check_predicate(pred_a)
    _check_predicate(pred_b)
    if not 1 <= n <= 4:
        raise ValueError("discrepancy search supports 1..4 points")
    if not 1 <= max_indices <= 3:
        raise ValueError("discrepancy search supports 1..3 indices")
    for points in range(1, n + 1):
        space = PointSpace(points)
        preorders = _preorders_by_distance(points)
        pairs = [qmetric.separation_pair(QuasiFamily(space, ("i0",), (rows,)))
                 for rows in preorders]
        zeros = np.array([qmetric.pack(meet) for meet, _ in pairs], dtype=np.int64)
        syms = np.array([qmetric.pack(sym) for _, sym in pairs], dtype=np.int64)
        bad = _disagreement(pred_a, pred_b, zeros, points)
        chosen = _first_hit(zeros, syms, bad, (1 << points * points) - 1, max_indices)
        if chosen is not None:
            witness = QuasiFamily(space, tuple(f"i{k}" for k in range(len(chosen))),
                                  tuple(preorders[i] for i in chosen))
            if not discrepancy_pairs(witness, pred_a, pred_b):
                raise AssertionError("packed search returned a family on which "
                                     f"{pred_a} and {pred_b} agree")
            return witness
    return None
