"""The row-mask spine: relations as row masks, packed or transposed, their
transitivity witnesses, the up-sets of preorders, and the family-subset
scan kept as a second route.

A preorder on n points is a tuple of row masks, rows[x] = {y : x below y}.
Every finite topology is the set of up-sets of its specialization preorder,
so enumerating preorders with their up-sets covers every topology.
`preorder_upsets` grows both at once, one point at a time: a child's
up-sets are read off its parent's, so no enumerated preorder is walked.
`upsets` lists the up-sets of one given preorder; it serves every space
that does not come from the enumeration, and is the tests' oracle for the
carried up-sets.  `closed_family_masks` instead filters all 2^(2^n)
candidate families; it is exponentially slower and serves only as the
cross-check of the enumeration.
"""

from __future__ import annotations

from operator import lshift


def members(mask: int) -> list[int]:
    """The points of a mask, ascending."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def triangles(rows):
    """Every (x, y, z), ascending, with y in rows[x] and z in rows[y] but
    not in rows[x]: the witnesses that the relation is not transitive.

    Each distinct row is tested once; only a relation that fails pays for
    the listing, and the witnesses are yielded as they are found, so a
    caller that needs the first stops there.
    """
    if all(all(rows[y] & ~row == 0 for y in members(row)) for row in set(rows)):
        return
    for x, row in enumerate(rows):
        for y in members(row):
            for z in members(rows[y] & ~row):
                yield x, y, z


def pack(rows) -> int:
    """A relation on n points, given by its rows, as one int of n^2 bits:
    bit x*n + y holds the pair (x, y)."""
    n = len(rows)
    return sum(map(lshift, rows, range(0, n * n, n)))


def transpose(rows) -> list[int]:
    """Rows of the converse relation: row y masks {x : y in rows[x]}."""
    columns = [0] * len(rows)
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= bit
            row ^= low
    return columns


def upsets(rows) -> list[int]:
    """Masks of every up-closed set of the preorder, ascending.

    The up-sets within a set D of points depend on D alone.  The highest
    point x of D is either outside, and so is everything below it, or
    inside, and so is its whole row; the first kind are the smaller masks.
    Each D met is listed once, so the work is linear in the number of
    up-sets, and far less when the two kinds share their D.
    """
    down, within = transpose(rows), {0: [0]}

    def upsets_within(points: int) -> list[int]:
        if points not in within:
            x = points.bit_length() - 1
            inside = rows[x] & points
            within[points] = upsets_within(points & ~down[x]) + [
                inside | s for s in upsets_within(points & ~rows[x])]
        return within[points]

    return upsets_within((1 << len(rows)) - 1)


def preorder_upsets(n: int):
    """(rows, ascending up-sets) of every preorder on n points, by one-point
    extension; the last level is generated lazily.

    A preorder on points 0..m extends one on 0..m-1 by a down-set D (the
    points below m) and an up-set U (the points above m) with every member
    of D below every member of U.  Each preorder on m+1 points arises from
    exactly one such triple (Brinkmann & McKay 2005; OEIS A000798).  The
    old points keep their order, so the new up-sets are the old ones that
    miss D, then the old ones that contain U with m added: every set of the
    second group holds bit m, so the two together are still ascending.
    """
    level = iter([((), (0,))])
    for m in range(n):
        level = _extend(list(level), m)
    return level


def _extend(level, m: int):
    """The children on points 0..m, with their ascending up-sets, of each
    (rows, ascending up-sets) pair on points 0..m-1."""
    bit = 1 << m
    for rows, ups in level:
        # Each candidate U with the old up-sets that contain it, m added.
        above = [(u, u | bit, tuple([w | bit for w in ups if w & u == u])) for u in ups]
        for below, meet in _down_sets(rows, ups, m):
            old = tuple(r | bit if below >> x & 1 else r for x, r in enumerate(rows))
            missing = tuple([w for w in ups if w & below == 0])
            for u, row, holding in above:
                if u & meet == u:
                    yield old + (row,), missing + holding


def _down_sets(rows, ups, m: int):
    """Each down-set D of a preorder on points 0..m-1, the complement of an
    up-set, with the meet of its rows: the up-sets U that may lie above a
    new point m placed over D are those inside that meet."""
    full = (1 << m) - 1
    for kept in ups:
        below = full & ~kept
        meet = full
        for x in range(m):
            if below >> x & 1:
                meet &= rows[x]
        yield below, meet


def preorder_rows(n: int) -> list[tuple[int, ...]]:
    """Row masks of every preorder on n points, in `preorder_upsets` order."""
    return [rows for rows, _ in preorder_upsets(n)]


def count_preorders(n: int) -> int:
    """The number of preorders on n points: the (D, U) pairs of every
    preorder on n - 1 points, counted without building the child each makes."""
    return sum([u & meet == u for rows, ups in preorder_upsets(n - 1)
                for _, meet in _down_sets(rows, ups, n - 1) for u in ups])


def closed_family_masks(n: int) -> list[int]:
    """Family bitmasks (over the 2^n subsets), ascending, of all labelled
    topologies on n points: families holding the empty and full sets and
    closed under pairwise union and intersection.  Bit f of present[a] says
    whether family f holds subset a: 2^a zeros, 2^a ones, repeated."""
    subsets = 1 << n
    full = (1 << (1 << subsets)) - 1
    present = [full ^ full // ((1 << (1 << a)) + 1) for a in range(subsets)]
    ok = present[0] & present[subsets - 1]
    for a in range(subsets):
        for b in range(a + 1, subsets):
            ok &= ~(present[a] & present[b]) | (present[a | b] & present[a & b])
    return members(ok)
