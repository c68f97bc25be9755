"""Known answers, computed without qmtop.

Two kinds of reference live here.  Fixed facts from the literature and the
README (labelled-topology counts, the pinned discrepancy witness), and
brute-force models that decide each CLI verdict straight from the
definitions: closure under unions and intersections, the quasimetric axioms,
the value-semigroup axioms, separation over opens, and convergence by
scanning one full period of a sequence past its last finite member.

The brute-force models are slow and serve the tests of the generators in
`workloads`, which predict the same verdicts by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# OEIS A000798: labelled topologies (equivalently preorders) on n points.
A000798 = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}

# The README's pinned first witness for `literal_r5` against direct T2.
R5_T2_WITNESS = {"kind": "qmetric", "n": 3, "indices": ["i0"],
                 "matrices": [[[0, 1, 0], [1, 0, 0], [1, 1, 0]]]}


# ---------------------------------------------------------------------------
# Relations as row masks: rows[x] holds {y : x related to y}


def members(mask: int, n: int) -> list[int]:
    return [p for p in range(n) if mask >> p & 1]


def mask_of(points) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


def transitive_closure(rows: list[int]) -> list[int]:
    """Reflexive transitive closure of a relation."""
    n = len(rows)
    out = [r | 1 << x for x, r in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            reach = out[x]
            for y in members(out[x], n):
                reach |= out[y]
            if reach != out[x]:
                out[x] = reach
                changed = True
    return out


def upsets(rows: list[int]) -> list[int]:
    """Masks of the up-closed sets, ascending: the Alexandrov opens."""
    n = len(rows)
    return [u for u in range(1 << n)
            if all(rows[x] & ~u == 0 for x in members(u, n))]


def matrix_of(rows: list[int]) -> list[list[int]]:
    """The {0,1} matrix whose zero entries are exactly the relation."""
    n = len(rows)
    return [[0 if rows[x] >> y & 1 else 1 for y in range(n)] for x in range(n)]


def zero_rows(matrix) -> list[int]:
    n = len(matrix)
    return [mask_of(y for y in range(n) if matrix[x][y] == 0) for x in range(n)]


def meet_rows(matrices) -> list[int]:
    """x related to y iff every coordinate distance d_i(x, y) is 0."""
    n = len(matrices[0])
    rows = [(1 << n) - 1] * n
    for m in matrices:
        rows = [r & z for r, z in zip(rows, zero_rows(m))]
    return rows


def is_antisymmetric(rows: list[int]) -> bool:
    n = len(rows)
    return all(not (rows[x] >> y & 1 and rows[y] >> x & 1)
               for x in range(n) for y in range(n) if x != y)


def is_discrete(rows: list[int]) -> bool:
    return all(r == 1 << x for x, r in enumerate(rows))


# ---------------------------------------------------------------------------
# Brute-force models of the documents


def is_topology(masks, n: int) -> bool:
    present = set(masks)
    if 0 not in present or (1 << n) - 1 not in present:
        return False
    return all(a | b in present and a & b in present
               for a, b in combinations(present, 2))


def close_subbase(subbase, n: int) -> list[int]:
    """Smallest topology containing the subbase, by naive fixpoint."""
    sets = set(subbase) | {0, (1 << n) - 1}
    while True:
        grown = sets | {a & b for a in sets for b in sets} | {a | b for a in sets for b in sets}
        if grown == sets:
            return sorted(sets)
        sets = grown


def family_opens(matrices) -> list[int]:
    """Opens generated by every ball {y : d_i(x, y) = 0}."""
    n = len(matrices[0])
    return close_subbase([z for m in matrices for z in zero_rows(m)], n)


def canonical_matrices(opens, n: int) -> list[list[list[int]]]:
    """d_U(x, y) = 1 iff x lies in U and y escapes it, one matrix per open."""
    return [[[1 if u >> x & 1 and not u >> y & 1 else 0 for y in range(n)]
             for x in range(n)] for u in opens]


def is_quasifamily(matrices) -> bool:
    for m in matrices:
        n = len(m)
        if any(m[x][x] != 0 for x in range(n)):
            return False
        if any(m[x][z] > m[x][y] + m[y][z]
               for x in range(n) for y in range(n) for z in range(n)):
            return False
    return True


def separated(opens, x: int, y: int, axiom: str) -> bool:
    """Pairwise separation straight from the definitions over the opens."""
    if axiom == "t0":
        return any((u >> x & 1) != (u >> y & 1) for u in opens)
    if axiom == "t1":
        return any(u >> x & 1 and not u >> y & 1 for u in opens)
    return any(u >> x & 1 and v >> y & 1 and u & v == 0 for u in opens for v in opens)


def space_separation(opens, n: int) -> dict:
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    return {axiom: all(separated(opens, x, y, axiom) for x, y in pairs)
            for axiom in ("t0", "t1", "t2")}


def literal_pair(matrices, method: str, x: int, y: int) -> bool:
    if method == "literal_r3":
        return any(m[x][y] == 1 for m in matrices)
    both = [m[x][y] == 1 and m[y][x] == 1 for m in matrices]
    if method == "literal_r4":
        return any(both)
    return any(a and b for a in both for b in both)


# ---------------------------------------------------------------------------
# Value semigroups


def semigroup_ok(add, zero: int, inf: int) -> bool:
    m = len(add)
    r = range(m)
    if zero == inf:
        return False
    if any(add[a][b] != add[b][a] for a in r for b in r):
        return False
    if any(add[add[a][b]][c] != add[a][add[b][c]] for a in r for b in r for c in r):
        return False
    if any(add[zero][a] != a or add[inf][a] != inf for a in r):
        return False
    leq = [[any(add[a][x] == b for x in r) for b in r] for a in r]
    if any(a != b and leq[a][b] and leq[b][a] for a in r for b in r):
        return False
    if any(sum(add[b][b] == a for b in r) != 1 for a in r):
        return False
    meet = {}
    for a in r:
        for b in r:
            lower = [c for c in r if leq[c][a] and leq[c][b]]
            top = [c for c in lower if all(leq[d][c] for d in lower)]
            if not top:
                return False
            meet[a, b] = top[0]
    return all(add[meet[a, b]][c] == meet[add[a][c], add[b][c]]
               for a in r for b in r for c in r)


def positives_ok(add, zero: int, inf: int, pos) -> bool:
    if not semigroup_ok(add, zero, inf):
        return False
    m = len(add)
    r = range(m)
    pos = set(pos)
    leq = [[any(add[a][x] == b for x in r) for b in r] for a in r]

    def meet(a, b):
        lower = [c for c in r if leq[c][a] and leq[c][b]]
        return next(c for c in lower if all(leq[d][c] for d in lower))

    if any(meet(p, q) not in pos for p in pos for q in pos):
        return False
    if any(leq[p][a] and a not in pos for p in pos for a in r):
        return False
    if any(add[b][b] == p and b not in pos for p in pos for b in r):
        return False
    return all(leq[a][b] or not all(leq[a][add[b][p]] for p in pos)
               for a in r for b in r)


# ---------------------------------------------------------------------------
# Sequences: finite sets and residue classes only


def in_set(desc: dict, k: int) -> bool:
    if desc["type"] == "finite":
        return k in desc["members"]
    return k % desc["mod"] in desc["residues"]


def value_at(seq: dict, k: int) -> int:
    for rule in seq["rules"]:
        if in_set(rule["set"], k):
            return rule["point"]
    return seq["default"]


def tail_window(seq: dict) -> range:
    """One full period of positions past every finite member."""
    start = 1 + max([max(r["set"]["members"], default=0) for r in seq["rules"]
                     if r["set"]["type"] == "finite"], default=0)
    period = 1
    for r in seq["rules"]:
        if r["set"]["type"] == "residues":
            period = math.lcm(period, r["set"]["mod"])
    return range(start, start + period)


def converge_verdict(seq: dict, matrices, opens, x: int, mode: str) -> str:
    """pass or fail for a sequence that is periodic past its finite rules."""
    window = [value_at(seq, k) for k in tail_window(seq)]
    if mode in ("right", "product"):
        ok = all(m[x][v] == 0 for m in matrices for v in window)
    elif mode == "topological":
        ok = all(v in members(u, len(matrices[0])) for u in opens if u >> x & 1
                 for v in window)
    elif mode == "left":
        ok = all(m[v][x] == 0 for m in matrices for v in window)
    elif mode == "cauchy":
        ok = all(m[a][b] == 0 for m in matrices for a in window for b in window)
    else:
        ok = all(sum(m[x][v] for v in window) == 0 for m in matrices)
    return "pass" if ok else "fail"


def deviation_density(seq: dict, matrix, x: int) -> Fraction:
    window = [value_at(seq, k) for k in tail_window(seq)]
    return Fraction(sum(matrix[x][v] for v in window), len(window))
