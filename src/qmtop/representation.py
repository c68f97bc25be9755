"""From a topology to its quasimetric family and back, plus the exhaustive
search for families where a literal separation condition and the direct
axiom disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import qmetric
from .core import PointSet, PointSpace, QuasiFamily, Topology, freeze_matrix
from .topology import enumerate_preorders, pair_separated, specialization_preorder

METRIC_PREDICATES = qmetric.SEP_MODES
DIRECT_PREDICATES = ("t0", "t1", "t2")


@dataclass(frozen=True, slots=True)
class CanonicalFamily(QuasiFamily):
    """The family indexed by the opens of a topology; the index for an open
    U measures exactly the failures of "in U implies in U"."""

    source: Topology


def _open_label(u: PointSet) -> str:
    return json.dumps(u.members(), separators=(",", ":"))


def d_U(t: Topology, u: PointSet, x: int, y: int) -> int:
    """1 iff x lies in the open and y escapes it.

    For x inside the open, the zero-set of d_U(x, .) recovers the open
    exactly; that identity is asserted on every call.
    """
    if u.space != t.space or not t.is_open(u):
        raise ValueError("u must be an open set of the topology")
    t.space.check_point(x)
    t.space.check_point(y)
    value = 1 if (u.mask >> x & 1 and not u.mask >> y & 1) else 0
    if u.mask >> x & 1:
        zero_set = sum(1 << z for z in t.space.points()
                       if not (u.mask >> x & 1 and not u.mask >> z & 1))
        if zero_set != u.mask:
            raise AssertionError("zero-set of d_U(x, .) failed to recover the open")
    return value


def p_U(t: Topology, u: PointSet, x: int, y: int) -> int:
    """Indicator of the open at x times indicator of its complement at y.

    Asserted pointwise equal to `d_U`, not merely equivalent.
    """
    if u.space != t.space or not t.is_open(u):
        raise ValueError("u must be an open set of the topology")
    value = (1 if u.mask >> x & 1 else 0) * (1 if not u.mask >> y & 1 else 0)
    if value != d_U(t, u, x, y):
        raise AssertionError("p_U and d_U disagree")
    return value


def canonical_family(t: Topology) -> CanonicalFamily:
    """One {0,1} matrix per open; entry [x][y] is 0 iff x in U implies y in U."""
    n = t.space.n
    labels = []
    matrices = []
    for u in t.opens:
        labels.append(_open_label(u))
        matrices.append(freeze_matrix(
            [[1 if (u.mask >> x & 1 and not u.mask >> y & 1) else 0
              for y in range(n)] for x in range(n)]))
    return CanonicalFamily(t.space, tuple(labels), tuple(matrices), t)


@dataclass(frozen=True, slots=True)
class RoundtripReport:
    equal: bool
    missing: tuple[PointSet, ...]
    extra: tuple[PointSet, ...]


def roundtrip(t: Topology) -> RoundtripReport:
    """Regenerate the topology from its canonical family and compare exactly."""
    regenerated = qmetric.to_topology(canonical_family(t))
    original = set(t.open_masks)
    back = set(regenerated.open_masks)
    missing = tuple(PointSet(t.space, m) for m in sorted(original - back))
    extra = tuple(PointSet(t.space, m) for m in sorted(back - original))
    return RoundtripReport(not missing and not extra, missing, extra)


# ---------------------------------------------------------------------------
# Discrepancy search


def _pair_predicate(name: str):
    """f(q, rows, x, y) for a metric mode on the family q or a direct axiom
    on the minimal neighbourhood rows of its generated topology."""
    if name in METRIC_PREDICATES:
        return lambda q, rows, x, y: qmetric.sep_pair(q, name, x, y)
    if name in DIRECT_PREDICATES:
        return lambda q, rows, x, y: pair_separated(rows, name, x, y)
    raise ValueError(f"unknown predicate {name!r}")


def discrepancy_pairs(q: QuasiFamily, pred_a: str, pred_b: str) -> list[dict]:
    """Ordered pairs at which the two predicates disagree on this family."""
    fa = _pair_predicate(pred_a)
    fb = _pair_predicate(pred_b)
    rows = specialization_preorder(qmetric.to_topology(q)).rows
    out = []
    n = q.space.n
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            va, vb = fa(q, rows, x, y), fb(q, rows, x, y)
            if va != vb:
                out.append({"pair": [x, y], pred_a: va, pred_b: vb})
    return out


def _sorted_matrices(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Distance matrices of every preorder on n points, ordered by their
    rows read as distance masks ({y : d(x,y) = 1}), smallest first."""
    full = (1 << n) - 1
    keyed = []
    for p in enumerate_preorders(n):
        key = tuple(full & ~row for row in p.rows)
        keyed.append((key, freeze_matrix([[key[x] >> y & 1 for y in range(n)]
                                          for x in range(n)])))
    keyed.sort(key=lambda km: km[0])
    return [m for _, m in keyed]


def _family_candidates(n: int, max_indices: int):
    """Families of independent preorder-induced matrices in canonical order.

    A {0,1} matrix is a quasimetric iff its zero-entry relation is a
    preorder, so enumerating per-index preorders covers exactly the valid
    families.  Matrices are ordered as in `_sorted_matrices`, and families
    are ordered by index count then lexicographically over their sorted
    matrix keys.
    """
    space = PointSpace(n)
    mats = _sorted_matrices(n)
    for count in range(1, max_indices + 1):
        for chosen in combinations_with_replacement(mats, count):
            labels = tuple(f"i{k}" for k in range(count))
            yield QuasiFamily(space, labels, chosen)


def _pack(matrix, bit) -> int:
    """Ordered pairs as an int of n^2 bits, bit x*n + y for (x, y), where
    bit(d(x,y), d(y,x)) holds."""
    n = len(matrix)
    return sum(1 << (x * n + y) for x in range(n) for y in range(n)
               if bit(matrix[x][y], matrix[y][x]))


# The direct axiom each table predicate reads off a meet.
_MEET_AXIOM = {"t0": "t0", "t0_unordered": "t0", "t1": "t1", "t1_amended": "t1",
               "literal_r3": "t1", "t2": "t2"}


def _meet_pair_mask(name: str, meet: int, n: int) -> int:
    """Packed ordered pairs of distinct points at which a predicate holds on
    every family with this packed meet.

    The generated topology is the Alexandrov topology of the meet, so
    meet row x is the minimal neighbourhood of x.  The one-direction metric
    modes read off it like the direct axioms: some index separates x from
    y iff some open holds x and not y.
    """
    axiom = _MEET_AXIOM[name]
    full = (1 << n) - 1
    rows = [meet >> (x * n) & full for x in range(n)]
    out = 0
    for x in range(n):
        for y in range(n):
            if x != y and pair_separated(rows, axiom, x, y):
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
    """Matrix positions of the first family, by index count and then in
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
    """First family (smallest point count, fewest indices, smallest matrices)
    where the two predicates disagree at some ordered pair of distinct points.

    A family's meet is the AND of its packed zero relations and its
    symmetric mask the OR of its packed symmetric-distance bits; both
    predicates are read off those two ints, so no candidate is built as a
    `QuasiFamily`.  The witness is re-checked on the object path.
    """
    import numpy as np

    _pair_predicate(pred_a)
    _pair_predicate(pred_b)
    if not 1 <= n <= 4:
        raise ValueError("discrepancy search supports 1..4 points")
    if not 1 <= max_indices <= 3:
        raise ValueError("discrepancy search supports 1..3 indices")
    for points in range(1, n + 1):
        mats = _sorted_matrices(points)
        zeros = np.array([_pack(m, lambda d, _: d == 0) for m in mats], dtype=np.int64)
        syms = np.array([_pack(m, lambda d, e: d == e == 1) for m in mats],
                        dtype=np.int64)
        bad = _disagreement(pred_a, pred_b, zeros, points)
        chosen = _first_hit(zeros, syms, bad, (1 << points * points) - 1, max_indices)
        if chosen is not None:
            witness = QuasiFamily(PointSpace(points),
                                  tuple(f"i{k}" for k in range(len(chosen))),
                                  tuple(mats[i] for i in chosen))
            if not discrepancy_pairs(witness, pred_a, pred_b):
                raise AssertionError("packed search returned a family on which "
                                     f"{pred_a} and {pred_b} agree")
            return witness
    return None
