"""Topology axioms, subbase generation, separation, convergence, enumeration.

Everything here is the direct, definition-level side of the toolkit: the
quasimetric characterisations in `qmetric` are cross-checked against these
oracles.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache, reduce
from itertools import combinations, repeat
from operator import or_

from . import _kernels, _tails
from ._kernels import pack, transpose
from .core import (  # noqa: F401  (serialize: an import site perfbench patches)
    InvariantViolation,
    PointMap,
    PointSpace,
    SequenceSpec,
    SpaceMismatchError,
    Topology,
    distances_text,
    members,
    members_text,
    qmetric_prefix,
    qmetric_text,
    record,
    serialize,
    topology_prefix,
    topology_text,
)

ENUM_MAX_POINTS = 5


@record
class TopologyViolation:
    kind: str
    witness: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        if not self.witness:
            return self.kind
        sets = ", ".join("{" + ",".join(map(str, w)) + "}" for w in self.witness)
        return f"{self.kind}: {sets}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "witness": [list(w) for w in self.witness]}


def _neighborhood_rows(space: PointSpace, masks) -> list[int]:
    """rows[x] is the intersection of the given sets containing x (the full
    set if none does): the minimal neighbourhoods of the topology they
    generate, which are always the rows of a preorder.  Each set, cut to the
    space, is 16 bits of one long integer, so column x, bit x of every set,
    is one shift and one AND, and y is in rows[x] iff column x lies inside
    column y."""
    full = space.full_mask
    words = b"".join(map(int.to_bytes, map(full.__and__, masks), repeat(2), repeat("little")))
    packed = int.from_bytes(words, "little")
    stride = int.from_bytes(b"\1\0" * (len(words) // 2), "little")
    columns = [packed >> x & stride for x in space.points()]
    return [sum([1 << y for y, column in enumerate(columns) if own & column == own])
            for own in columns]


def check_topology(space: PointSpace, masks) -> list[TopologyViolation]:
    """All closure failures of a candidate family of open sets, given as
    ascending distinct masks; a mask with bits outside the space raises
    `InvariantViolation`."""
    return list(closure_failures(space, masks))


def closure_failures(space: PointSpace, masks) -> Iterator[TopologyViolation]:
    """The closure failures of `check_topology`, in its order, computed as
    they are taken, so the first costs no more than it must.

    Every member is an up-set of the family's neighbourhood rows, so the
    family is a topology exactly when it has as many members as those rows
    have up-sets; only a failure pays for the scan over pairs.
    """
    full = space.full_mask
    if masks and (min(masks) < 0 or max(masks) > full):
        mask = next(m for m in masks if m & ~full)
        raise InvariantViolation(f"mask {mask:#x} has bits outside the space")
    if len(_kernels.upsets(_neighborhood_rows(space, masks))) == len(masks):
        return iter(())
    return _pair_scan(space, masks)


def _pair_scan(space: PointSpace, masks) -> Iterator[TopologyViolation]:
    """Missing empty or full set, then every escaping union or intersection
    of two distinct members (ascending masks), whose points are listed once
    a violation names them."""
    present = set(masks)
    if 0 not in present:
        yield TopologyViolation("no-empty-set", ())
    if space.full_mask not in present:
        yield TopologyViolation("no-full-set", ())
    points = cache(lambda m: tuple(members(m)))
    for a, b in combinations(masks, 2):
        if a | b not in present:
            yield TopologyViolation("union-escape", (points(a), points(b)))
        if a & b not in present:
            yield TopologyViolation("intersection-escape", (points(a), points(b)))


def generate_from_subbase(space: PointSpace, masks) -> Topology:
    """Smallest topology containing the subbase of the given masks: the
    minimal neighbourhoods the subbase determines are its rows.

    The empty intersection is the full set, so the result is a topology
    even for an empty subbase.
    """
    return Topology(space, tuple(_neighborhood_rows(space, masks)))


def minimal_neighborhood(t: Topology, x: int) -> int:
    """Mask of the intersection of every open containing x; open itself on
    finite carriers."""
    t.space.check_point(x)
    return t.rows[x]


def alexandrov_topology(space: PointSpace, rows) -> Topology:
    """The topology whose opens are the up-sets of a preorder's rows."""
    return Topology(space, tuple(rows))


# --- separation axioms, read off the minimal neighbourhoods ---------------

def separating_pairs(rows, axiom: str) -> int:
    """The ordered pairs of distinct points that `axiom` ("t0", "t1" or
    "t2") separates, packed as `_kernels.pack` packs a relation, read off the
    minimal neighbourhood rows of a finite space.

    rows[x] is the least open containing x, so some open holds x and not y
    iff y is outside rows[x] (T1 at (x, y)); T0 asks that of one direction;
    x and y have disjoint open neighbourhoods iff their least ones are
    disjoint (T2), iff y is in no column of a point of rows[x].  The rows
    are reflexive, so no pair (x, x) is ever set.
    """
    square = (1 << len(rows) ** 2) - 1
    if axiom == "t1":
        return square & ~pack(rows)
    if axiom == "t0":
        return square & ~(pack(rows) & pack(transpose(rows)))
    if axiom == "t2":
        columns = transpose(rows)
        return square & ~pack([reduce(or_, map(columns.__getitem__, members(row)), 0)
                               for row in rows])
    raise ValueError(f"unknown axiom {axiom!r}")


def separated(rows, axiom: str) -> bool:
    """Whether `axiom` separates every ordered pair of distinct points, read
    off minimal neighbourhood rows."""
    n = len(rows)
    return separating_pairs(rows, axiom).bit_count() == n * (n - 1)


def is_t0(t: Topology) -> bool:
    return separated(t.rows, "t0")


def is_t1(t: Topology) -> bool:
    return separated(t.rows, "t1")


def is_t2(t: Topology) -> bool:
    return separated(t.rows, "t2")


# --- continuity and convergence -------------------------------------------

def is_continuous(f: PointMap, td: Topology, tc: Topology) -> bool:
    """Whether f is monotone: x below y implies f(x) below f(y).  On finite
    spaces that is continuity, as the least open around x must lie inside
    the preimage of the least open around f(x)."""
    if not f.domain.compatible(td.space) or not f.codomain.compatible(tc.space):
        raise SpaceMismatchError("map spaces do not match the topologies")
    return all(row & ~f.preimage_mask(tc.rows[f(x)]) == 0 for x, row in enumerate(td.rows))


def converges_topologically(s: SequenceSpec, t: Topology, x: int,
                            horizon: int = 100_000) -> bool:
    """Whether the sequence is eventually inside the minimal neighbourhood of x.

    The verdict is decided exactly from the rule structure; the horizon only
    bounds a direct-evaluation cross-check of a positive verdict.
    """
    if not s.space.compatible(t.space):
        raise SpaceMismatchError("sequence and topology spaces differ")
    good = minimal_neighborhood(t, x)
    decided = _tails.eventually_in(s, good)
    _tails.assert_tail_consistent(s, good, decided, horizon)
    return decided


# --- exhaustive enumeration -------------------------------------------------

def _check_enumerable(n: int) -> None:
    if not 1 <= n <= ENUM_MAX_POINTS:
        raise ValueError(f"enumeration supports 1..{ENUM_MAX_POINTS} points, got {n}")


def _enumerated_rows(n: int) -> list[tuple[int, ...]]:
    _check_enumerable(n)
    return _kernels.preorder_rows(n)


def count_preorders(n: int) -> int:
    """The number of preorders, and so of topologies, on n labelled points."""
    _check_enumerable(n)
    return _kernels.count_preorders(n)


def enumerate_preorders(n: int):
    """The topology of every preorder on n labelled points, ascending by
    relation rows."""
    rows = sorted(_enumerated_rows(n))
    space = PointSpace(n)
    for r in rows:
        yield alexandrov_topology(space, r)


def preorder_documents(n: int) -> list[str]:
    """The single-index qmetric document (d(x, y) = 0 iff x is below y) of
    every preorder on n labelled points, ascending by relation rows.

    The rows come from `_kernels.preorder_rows`, which yields only
    preorders, so no `Topology` is built to check them again.
    """
    rows = sorted(_enumerated_rows(n))
    prefix = qmetric_prefix(PointSpace(n), ("i0",))
    text_of = [distances_text(n, r) for r in range(1 << n)].__getitem__
    return [qmetric_text(prefix, (r,), text_of) for r in rows]


def _written_topologies(n: int):
    """(document, rows) of every labelled topology on n points, each document
    written from the up-sets `_kernels.preorder_upsets` carries."""
    _check_enumerable(n)
    prefix = topology_prefix(PointSpace(n))
    text_of = [members_text(m) for m in range(1 << n)].__getitem__
    for rows, opens in _kernels.preorder_upsets(n):
        yield topology_text(prefix, opens, text_of), rows


def topology_documents(n: int) -> list[str]:
    """The document of every labelled topology on n points, in canonical order."""
    return sorted(text for text, _ in _written_topologies(n))


def enumerate_topologies(n: int):
    """Every labelled topology on n points, in the order of
    `topology_documents`."""
    space = PointSpace(n)
    return iter([alexandrov_topology(space, rows) for _, rows in sorted(_written_topologies(n))])
