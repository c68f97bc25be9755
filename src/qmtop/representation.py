"""From a topology to its quasimetric family and back, plus the exhaustive
search for families where a literal separation condition and the direct
axiom disagree.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement
from operator import itemgetter

from . import _kernels, qmetric
from .core import PointSpace, QuasiFamily, Topology, members, members_text, record
from .topology import (  # noqa: F401  (enumerate_preorders: an import site perfbench patches)
    enumerate_preorders,
    separating_pairs,
)


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


def _preorders_by_distance(n: int) -> list[tuple[int, ...]]:
    """Zero rows of every preorder on n points, ordered by their distance
    rows ({y : d(x,y) = 1}) read as a tuple of masks, smallest first."""
    full = (1 << n) - 1
    return sorted(_kernels.preorder_rows(n), key=lambda rows: tuple(full & ~r for r in rows))


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


def _first_hit(generators, bad, full: int, max_indices: int) -> list[int] | None:
    """Generator positions of the first multiset, by size and then in
    `combinations_with_replacement` order, whose (meet, sym) state, the AND
    of its generators' meets and the OR of their syms, satisfies `bad`.

    Level j maps each state some j-multiset reaches to the largest first
    position of such a multiset (level 0: the empty family, labelled with
    the generator count), so the k-multisets starting at i are generator i
    combined with the states of level k - 1 labelled i or more; `bad` sees
    each state once.
    """
    levels = [([(full, 0)], [len(generators)])]
    tested = set()
    for _ in range(max_indices):
        states, labels = levels[-1]
        level = {}
        for i, (gm, gs) in enumerate(generators):
            for m, s in states[bisect_left(labels, i):]:
                state = (m & gm, s | gs)
                if state not in tested:
                    tested.add(state)
                    if bad(*state):
                        return _recover(generators, levels, i, bad)
                level[state] = i
        ordered = sorted(level.items(), key=itemgetter(1))
        levels.append(([state for state, _ in ordered], [label for _, label in ordered]))
    return None


def _recover(generators, levels, first: int, bad) -> list[int]:
    """The first bad multiset starting at `first`, one level down at a time:
    the smallest position, not below the last one, that combined with some
    state labelled at least as high lands in the targets; those states
    become the next targets."""
    chosen, hit = [], bad
    for states, labels in reversed(levels):
        for i in range(chosen[-1] if chosen else first, len(generators)):
            gm, gs = generators[i]
            targets = {(m, s) for m, s in states[bisect_left(labels, i):]
                       if hit(m & gm, s | gs)}
            if targets:
                break
        chosen.append(i)
        hit = lambda m, s, targets=targets: (m, s) in targets
    return chosen


def find_discrepancy(pred_a: str, pred_b: str, n: int,
                     max_indices: int) -> QuasiFamily | None:
    """First family (smallest point count, fewest indices, smallest distance
    rows) where the two predicates disagree at some ordered pair of distinct
    points.

    Each preorder's `qmetric.separation_pair` is packed into two ints; a
    family's state is the AND of its indices' packed meets and the OR of
    their packed symmetric masks (left 0 unless a predicate reads them).
    Both predicates are read off that state, so no candidate is built as a
    `QuasiFamily`; the witness is re-checked on the object path.  Predicates
    that read one relation (`qmetric.PREDICATES`) never disagree.
    """
    reads = [qmetric.predicate(name)[0] for name in (pred_a, pred_b)]
    if not 1 <= n <= 4:
        raise ValueError("discrepancy search supports 1..4 points")
    if not 1 <= max_indices <= 3:
        raise ValueError("discrepancy search supports 1..3 indices")
    if reads[0] == reads[1]:
        return None
    reads_sym = "sym" in reads
    for points in range(1, n + 1):
        preorders = _preorders_by_distance(points)
        pairs = [qmetric.separation_pair(points, (rows,)) for rows in preorders]
        generators = [(_kernels.pack(meet), sym if reads_sym else 0) for meet, sym in pairs]
        # Each meet of preorders is itself a preorder, and the topology a
        # family generates is the Alexandrov topology of its meet, so these
        # tables hold every reachable meet and read the direct axioms off it.
        held = [None if relation == "sym"
                else {_kernels.pack(rows): separating_pairs(rows, relation) for rows in preorders}
                for relation in reads]

        def bad(meet: int, sym: int) -> bool:
            a, b = (sym if table is None else table[meet] for table in held)
            return a != b

        # Without sym, a family's state is its meet alone, a preorder, and
        # every preorder is already a one-index state: one level is enough.
        levels = max_indices if reads_sym else 1
        chosen = _first_hit(generators, bad, (1 << points * points) - 1, levels)
        if chosen is not None:
            witness = QuasiFamily(PointSpace(points), tuple(f"i{k}" for k in range(len(chosen))),
                                  tuple(preorders[i] for i in chosen))
            if not discrepancy_pairs(witness, pred_a, pred_b):
                raise AssertionError("state search returned a family on which "
                                     f"{pred_a} and {pred_b} agree")
            return witness
    return None
