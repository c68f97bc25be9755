"""Seeded workloads: the CLI calls of one pass, each with its known answer.

A workload is a list of `Call`s.  Every call carries its input documents and
the exit code and stdout it must produce.  Expected answers come from the
way each input is built (a preorder fixes its Alexandrov opens, its
separation and the convergence of a periodic sequence), never from qmtop;
`oracle` holds the brute-force models the tests check these predictions
against.

Why these workloads:

* `search` runs the exhaustive commands.  The enumeration kernels,
  topology enumeration, per-candidate `to_topology` and `serialize` do
  almost all the work; interpreter start and import are under 5 % of it.
  The seed only orders the calls.
* `docs` gives about 100 small documents (n <= 5) one call each, across
  every subcommand, with about a third invalid or failing the property.
  Interpreter start and import dominate each call.  It is the only
  workload that reaches `continuity` and `_tails`; the enumeration kernels
  do no work here.
* `wide` gives a few documents on 7 to 12 points with hundreds to thousands
  of opens: the same layers as `search`, but one huge input per call
  instead of many tiny ones, so per-call overhead and the quadratic closure
  pull apart.  The seed relabels points and shuffles opens, which leaves
  the cost of each input unchanged.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from oracle import (
    A000798,
    R5_T2_WITNESS,
    canonical_matrices,
    is_antisymmetric,
    is_discrete,
    is_topology,
    literal_pair,
    mask_of,
    matrix_of,
    meet_rows,
    members,
    transitive_closure,
    upsets,
)

# One sequence per group, so every seed has the same mix of tail-analysis
# costs.  Each group keeps its lcm within qmtop's exact-tail cap of 10,000:
# the largest is 9240.
MODULI_GROUPS = ((), (3, 4), (8, 9), (7, 11, 8), (8, 5, 7, 11, 3))
CONVERGE_MODES = ("right", "left", "cauchy", "topological", "product", "statistical")
SEPARATION_METHODS = ("direct", "metric", "literal_r3", "literal_r4", "literal_r5")


@dataclass
class Call:
    """One CLI call.  Tokens of `argv` that name a key of `files` are replaced
    by the path the runner writes that document to."""

    argv: list[str]
    exit: int
    verdict: str | None = None
    files: dict[str, str] = field(default_factory=dict)
    check: Callable[[str], str | None] | None = None
    # Facts the brute-force tests need: the parsed documents and the point.
    model: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def verify(call: Call, code: int, stdout: str) -> str | None:
    """None when the call produced its known answer, else what went wrong."""
    if code != call.exit:
        return f"exit {code}, expected {call.exit}"
    if call.exit == 2:
        return None if stdout == "" else "input error wrote to stdout"
    if call.verdict is not None:
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON report"
        if report.get("verdict") != call.verdict:
            return f"verdict {report.get('verdict')!r}, expected {call.verdict!r}"
    return call.check(stdout) if call.check else None


def _expect_doc(expected: dict):
    def check(stdout: str):
        return None if json.loads(stdout) == expected else "document differs from the known one"
    return check


def _expect_detail(**expected):
    def check(stdout: str):
        detail = json.loads(stdout).get("detail", {})
        for key, value in expected.items():
            if detail.get(key) != value:
                return f"detail {key}={detail.get(key)!r}, expected {value!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# Documents built from preorders


def random_preorder(rng: random.Random, n: int) -> list[int]:
    p = rng.choice((0.1, 0.2, 0.35))
    rows = [mask_of(y for y in range(n) if y != x and rng.random() < p) for x in range(n)]
    return transitive_closure(rows)


def topology_doc(rows: list[int], rng: random.Random | None = None, drop: int | None = None) -> dict:
    opens = [u for u in upsets(rows) if u != drop]
    if rng is not None:
        rng.shuffle(opens)
    return {"kind": "topology", "n": len(rows), "opens": [members(u, len(rows)) for u in opens]}


def qmetric_doc(matrices) -> dict:
    return {"kind": "qmetric", "n": len(matrices[0]),
            "indices": [f"i{k}" for k in range(len(matrices))], "matrices": matrices}


def droppable_union(rows: list[int]) -> int | None:
    """An open that is the union of two incomparable opens, if any."""
    opens = upsets(rows)
    for a in opens:
        for b in opens:
            if a & ~b and b & ~a:
                return a | b
    return None


def preorder_with_union(rng: random.Random, n: int) -> tuple[list[int], int]:
    while True:
        rows = random_preorder(rng, n)
        u = droppable_union(rows)
        if u is not None:
            return rows, u


def broken_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """A {0,1} matrix whose zero relation is not transitive, or not reflexive."""
    m = matrix_of([1 << x for x in range(n)])
    if n < 3:
        x = rng.randrange(n)
        m[x][x] = 1
        return m
    x, y, z = rng.sample(range(n), 3)
    m[x][y] = m[y][z] = 0
    return m


def canonical_doc(rows: list[int]) -> dict:
    n = len(rows)
    opens = upsets(rows)
    pairs = sorted(zip((dump(members(u, n)) for u in opens), canonical_matrices(opens, n)))
    return {"kind": "qmetric", "n": n, "indices": [p[0] for p in pairs],
            "matrices": [p[1] for p in pairs]}


def space_model(space: dict) -> tuple[list[int], list]:
    """Specialization rows and the family a space document stands for."""
    n = space["n"]
    if space["kind"] == "topology":
        opens = sorted(mask_of(o) for o in space["opens"])
        rows = [_meet_of(u for u in opens if u >> x & 1) & ((1 << n) - 1) for x in range(n)]
        return rows, canonical_matrices(opens, n)
    return meet_rows(space["matrices"]), space["matrices"]


def _meet_of(masks) -> int:
    out = -1
    for u in masks:
        out &= u
    return out


def index_labels(space: dict) -> list[str]:
    if space["kind"] == "topology":
        return [dump(o) for o in sorted(space["opens"], key=mask_of)]
    return space["indices"]


# ---------------------------------------------------------------------------
# docs


def _check_call(kind: str, doc: dict, ok: bool) -> Call:
    return Call(["check", "doc.json", "--kind", kind], 0 if ok else 1,
                "pass" if ok else "fail", {"doc.json": dump(doc)}, model={"doc": doc})


def semigroup_doc(rng: random.Random, broken: bool, positives: bool | None = None) -> dict:
    """The chain under max or {0,1}^k under or, with shuffled element order.

    Both are value semigroups.  Breaking one table entry breaks
    commutativity.  For either carrier the only set of positives is the
    whole carrier, and dropping the zero breaks it.
    """
    if rng.random() < 0.5:
        size = rng.randint(2, 5)
        op, labels = max, [str(e) for e in range(size)]
    else:
        k = rng.randint(1, 2)
        size = 1 << k
        op, labels = (lambda a, b: a | b), [format(e, f"0{k}b") for e in range(size)]
    perm = list(range(size))
    rng.shuffle(perm)
    add = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            add[perm[a]][perm[b]] = perm[op(a, b)]
    if broken:
        a, b = rng.sample(range(size), 2)
        add[a][b] = rng.choice([c for c in range(size) if c != add[b][a]])
    elements = [None] * size
    for e in range(size):
        elements[perm[e]] = labels[e]
    doc = {"kind": "semigroup", "elements": elements, "add": add,
           "zero": perm[0], "infinity": perm[size - 1]}
    if positives is not None:
        doc["positives"] = [e for e in range(size) if positives or e != perm[0]]
    return doc


def _separation_call(space: dict, method: str) -> Call:
    rows, matrices = space_model(space)
    n = space["n"]
    t0, t1 = is_antisymmetric(rows), is_discrete(rows)
    direct = {"t0": t0, "t1": t1, "t2": t1}
    files = {"space.json": dump(space)}
    argv = ["separation", "space.json", "--method", method]
    model = {"doc": space}
    if method in ("direct", "metric"):
        return Call(argv, 0, "pass", files, _expect_detail(method=method, t0=t0, t1=t1, t2=t1),
                    model)
    axiom = {"literal_r3": "t0", "literal_r4": "t1", "literal_r5": "t2"}[method]
    pairs = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            rel = rows[x] >> y & 1
            if method == "literal_r3":
                lit, sep = not rel, not (rel and rows[y] >> x & 1)
            else:
                lit = literal_pair(matrices, "literal_r4", x, y)
                sep = not rel if axiom == "t1" else rows[x] & rows[y] == 0
            if lit != sep:
                pairs.append({"pair": [x, y], method: lit, axiom: sep})
    return Call(argv, 1 if pairs else 0, "fail" if pairs else "pass", files,
                _expect_detail(axiom=axiom, direct=direct[axiom], disagreeing_pairs=pairs), model)


def random_sequence(rng: random.Random, n: int, moduli: tuple[int, ...] = ()) -> dict:
    """Periodic on residue classes with the given moduli, or eventually
    constant when there are none."""
    if not moduli:
        rules = [{"set": {"type": "finite", "members": sorted(rng.sample(range(1, 40), rng.randint(1, 5)))},
                  "point": rng.randrange(n)} for _ in range(rng.randint(1, 3))]
    else:
        rules = []
        for mod in moduli:
            residues = sorted(rng.sample(range(mod), rng.randint(1, max(1, mod // 2))))
            rules.append({"set": {"type": "residues", "mod": mod, "residues": residues},
                          "point": rng.randrange(n)})
    return {"kind": "sequence", "n": n, "default": rng.randrange(n), "rules": rules}


def tail_period(seq: dict) -> list[int]:
    """Values at the residues 0..L-1 modulo L, the lcm of the rule moduli.

    Past its finite rules the sequence repeats with period L, so these are
    the values taken unboundedly often, each with density 1/L per residue.
    """
    residue_rules = [(r["set"]["mod"], set(r["set"]["residues"]), r["point"])
                     for r in seq["rules"] if r["set"]["type"] == "residues"]
    period = math.lcm(*[mod for mod, _, _ in residue_rules])
    return [next((p for mod, res, p in residue_rules if r % mod in res), seq["default"])
            for r in range(period)]


def _converge_call(seq: dict, space: dict, x: int, mode: str) -> Call:
    files = {"seq.json": dump(seq), "space.json": dump(space)}
    argv = ["converge", "seq.json", "space.json", "--point", str(x), "--mode", mode]
    model = {"seq": seq, "doc": space, "point": x}
    n = space["n"]
    if not 0 <= x < n:
        return Call(argv, 2, None, files, model=model)
    rows, matrices = space_model(space)
    values = tail_period(seq)
    rec = set(values)
    if mode == "left":
        ok = all(rows[v] >> x & 1 for v in rec)
    elif mode == "cauchy":
        ok = all(rows[a] >> b & 1 for a in rec for b in rec)
    else:
        ok = all(rows[x] >> v & 1 for v in rec)
    check = None
    if mode == "statistical":
        expected = {}
        for label, m in zip(index_labels(space), matrices):
            d = Fraction(sum(m[x][v] for v in values), len(values))
            expected[label] = {"kind": "exact", "numerator": d.numerator,
                               "denominator": d.denominator}

        def check(stdout: str):
            got = {e["index"]: e["density"] for e in json.loads(stdout)["detail"]["per_index"]}
            return None if got == expected else "deviation densities differ from the known ones"
    return Call(argv, 0 if ok else 1, "pass" if ok else "fail", files, check, model)


def docs(seed: int, max_n: int = 5) -> list[Call]:
    rng = random.Random(f"docs:{seed}")

    def size():
        return rng.randint(2, max_n)

    calls = []
    for _ in range(4):
        rows, drop = preorder_with_union(rng, size())
        calls.append(_check_call("topology", topology_doc(rows, rng), True))
        calls.append(_check_call("topology", topology_doc(rows, rng, drop), False))
    for k in range(8):
        n = size()
        if k < 5:
            mats = [matrix_of(random_preorder(rng, n)) for _ in range(rng.randint(1, 3))]
        else:
            mats = [matrix_of(random_preorder(rng, n)), broken_matrix(rng, n)]
        calls.append(_check_call("qmetric", qmetric_doc(mats), k < 5))
    for k in range(6):
        calls.append(_check_call("semigroup", semigroup_doc(rng, broken=k >= 4), k < 4))
    for k in range(6):
        calls.append(_check_call("positives", semigroup_doc(rng, False, positives=k < 3), k < 3))

    for k in range(8):
        if k < 6:
            rows = random_preorder(rng, size())
            doc, expected = topology_doc(rows, rng), canonical_doc(rows)
            calls.append(Call(["canonical", "doc.json"], 0, None, {"doc.json": dump(doc)},
                              _expect_doc(expected), {"doc": doc}))
        else:
            rows, drop = preorder_with_union(rng, size())
            doc = topology_doc(rows, rng, drop)
            calls.append(Call(["canonical", "doc.json"], 2, None, {"doc.json": dump(doc)},
                              model={"doc": doc}))
    for k in range(8):
        n = size()
        if k < 6:
            prs = [random_preorder(rng, n) for _ in range(rng.randint(1, 3))]
            doc = qmetric_doc([matrix_of(r) for r in prs])
            meet = [_meet_of(col) for col in zip(*prs)]
            expected = {"kind": "topology", "n": n, "opens": [members(u, n) for u in upsets(meet)]}
            calls.append(Call(["topology", "doc.json"], 0, None, {"doc.json": dump(doc)},
                              _expect_doc(expected), {"doc": doc}))
        else:
            doc = qmetric_doc([broken_matrix(rng, n)])
            calls.append(Call(["topology", "doc.json"], 2, None, {"doc.json": dump(doc)},
                              model={"doc": doc}))
    for k in range(6):
        if k < 5:
            doc = topology_doc(random_preorder(rng, size()), rng)
            calls.append(Call(["roundtrip", "doc.json"], 0, "pass", {"doc.json": dump(doc)},
                              _expect_detail(missing=[], extra=[]), {"doc": doc}))
        else:
            rows, drop = preorder_with_union(rng, size())
            doc = topology_doc(rows, rng, drop)
            calls.append(Call(["roundtrip", "doc.json"], 2, None, {"doc.json": dump(doc)},
                              model={"doc": doc}))

    n = size()
    spaces = [topology_doc(random_preorder(rng, size()), rng),
              qmetric_doc([matrix_of(random_preorder(rng, n)) for _ in range(2)]),
              qmetric_doc([matrix_of(random_preorder(rng, n)) for _ in range(3)])]
    for space in spaces:
        for method in SEPARATION_METHODS:
            calls.append(_separation_call(space, method))

    for k, moduli in enumerate(MODULI_GROUPS):
        n = size()
        if k % 2:
            space = topology_doc(random_preorder(rng, n), rng)
        else:
            space = qmetric_doc([matrix_of(random_preorder(rng, n)) for _ in range(rng.randint(1, 3))])
        seq = random_sequence(rng, n, moduli)
        for mode in CONVERGE_MODES:
            x = n if k == 2 and mode in ("right", "statistical") else rng.randrange(n)
            calls.append(_converge_call(seq, space, x, mode))
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# search


def _all_topologies(n: int):
    def check(stdout: str):
        lines = stdout.splitlines()
        if len(lines) != A000798[n]:
            return f"{len(lines)} documents, expected {A000798[n]}"
        if lines != sorted(set(lines)):
            return "documents are not distinct and in canonical order"
        for line in lines:
            doc = json.loads(line)
            masks = [mask_of(o) for o in doc["opens"]]
            if doc["kind"] != "topology" or doc["n"] != n or masks != sorted(masks) \
                    or not is_topology(masks, n):
                return f"not a canonical topology on {n} points: {line}"
        return None
    return check


def search(seed: int) -> list[Call]:
    calls = [
        Call(["enumerate", "--n", "5", "--kind", "topologies"], 0, None, check=_all_topologies(5)),
        Call(["enumerate", "--n", "5", "--kind", "preorders", "--count-only"], 0,
             check=lambda out: None if out == f"{A000798[5]}\n" else f"count {out!r}"),
        Call(["roundtrip", "--n", "4"], 0, "pass",
             check=_expect_detail(checked=A000798[4], equal=A000798[4])),
        Call(["discrepancy", "--left", "literal_r5", "--right", "t2", "--n", "3", "--indices", "1"],
             1, "witness",
             check=lambda out: None if json.loads(out)["witness"] == R5_T2_WITNESS
             else "witness differs from the pinned one"),
        Call(["discrepancy", "--left", "t0_unordered", "--right", "t0", "--n", "3", "--indices", "3"],
             0, "none"),
        Call(["discrepancy", "--left", "t1_amended", "--right", "t1", "--n", "4", "--indices", "2"],
             0, "none"),
    ]
    random.Random(f"search:{seed}").shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# wide


def _relabel(rows: list[int], perm: list[int]) -> list[int]:
    n = len(rows)
    out = [0] * n
    for x in range(n):
        out[perm[x]] = mask_of(perm[y] for y in members(rows[x], n))
    return out


def sparse_family(rng: random.Random, n: int, chains: int) -> tuple[dict, list[int]]:
    """Three preorders whose meet is `chains` disjoint two-point chains.

    The meet has 3^chains * 2^(n - 2*chains) up-sets whatever the seed, so
    the cost of generating the topology does not depend on it.
    """
    base = [1 << x for x in range(n)]
    for c in range(chains):
        base[2 * c] |= 1 << (2 * c + 1)
    perm = list(range(n))
    rng.shuffle(perm)
    meet = _relabel(base, perm)
    while True:
        prs = []
        for _ in range(3):
            extra = list(meet)
            x, y = rng.sample(range(n), 2)
            extra[x] |= 1 << y
            prs.append(transitive_closure(extra))
        if [_meet_of(col) for col in zip(*prs)] == meet:
            return qmetric_doc([matrix_of(r) for r in prs]), meet


def discrete_topology(rng: random.Random, n: int) -> dict:
    return topology_doc([1 << x for x in range(n)], rng)


def _all_subsets(n: int) -> dict:
    return {"kind": "topology", "n": n, "opens": [members(u, n) for u in range(1 << n)]}


def _canonical_discrete(n: int):
    def check(stdout: str):
        doc = json.loads(stdout)
        full = (1 << n) - 1
        labels = [dump(members(u, n)) for u in range(1 << n)]
        if doc["kind"] != "qmetric" or doc["n"] != n or doc["indices"] != sorted(labels):
            return "indices are not the sorted opens"
        for label, m in zip(doc["indices"], doc["matrices"]):
            u = mask_of(json.loads(label))
            rows = [full if u >> x & 1 == 0 else u for x in range(n)]
            if m != matrix_of(rows):
                return f"matrix for open {label} is not d_U"
        return None
    return check


def wide(seed: int) -> list[Call]:
    rng = random.Random(f"wide:{seed}")
    disc7 = qmetric_doc([matrix_of([1 << x for x in range(7)])])
    fam7, meet7 = sparse_family(rng, 7, 2)
    fam8, meet8 = sparse_family(rng, 8, 3)
    calls = [Call(["topology", "doc.json"], 0, None, {"doc.json": dump(disc7)},
                  _expect_doc(_all_subsets(7)))]
    for fam, meet in ((fam7, meet7), (fam8, meet8)):
        n = len(meet)
        calls.append(Call(["topology", "doc.json"], 0, None, {"doc.json": dump(fam)},
                          _expect_doc({"kind": "topology", "n": n,
                                       "opens": [members(u, n) for u in upsets(meet)]})))
    for n in (11, 12):
        doc = dump(discrete_topology(rng, n))
        calls.append(Call(["check", "doc.json", "--kind", "topology"], 0, "pass", {"doc.json": doc}))
        calls.append(Call(["canonical", "doc.json"], 0, None, {"doc.json": doc},
                          _canonical_discrete(n)))
    calls.append(Call(["roundtrip", "doc.json"], 0, "pass",
                      {"doc.json": dump(discrete_topology(rng, 9))},
                      _expect_detail(missing=[], extra=[])))
    calls.append(Call(["separation", "doc.json", "--method", "direct"], 0, "pass",
                      {"doc.json": dump(discrete_topology(rng, 12))},
                      _expect_detail(t0=True, t1=True, t2=True)))
    calls.append(_separation_call(fam8, "metric"))
    rng.shuffle(calls)
    return calls


WORKLOADS = {"search": search, "docs": docs, "wide": wide}

# A cheap first call that loads the interpreter, numpy and qmtop from disk.
COLD_CALL = Call(["enumerate", "--n", "2", "--kind", "topologies", "--count-only"], 0,
                 check=lambda out: None if out == f"{A000798[2]}\n" else f"count {out!r}")
