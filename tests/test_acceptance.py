"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from qmtop.cli import main as cli_main
from qmtop.core import (
    PointSpace,
    PositiveSet,
    ResidueClasses,
    SequenceSpec,
    Squares,
    ValueSemigroup,
    parse_document,
)
from qmtop import continuity, qmetric, representation, topology

from helpers import (
    PointMap,
    all_eventually_periodic,
    d_U,
    family_route_topologies,
    is_continuous,
    lift_quasifamily,
    matrix_family,
    metric_continuous_at,
    net_convergence_disagreements,
    opens_continuous,
    opens_of,
    p_U,
    semigroup_zero_one_pow,
    sierpinski,
    small_index_families,
    to_topology_kopperman,
    zero_rows,
)

EXPECTED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}
ROUNDTRIP_COUNTS = {**EXPECTED_COUNTS, 5: 6942}


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_roundtrip_theorem():
    start = time.perf_counter()
    ok = True
    for n, expected in ROUNDTRIP_COUNTS.items():
        count = 0
        for t in topology.enumerate_topologies(n):
            count += 1
            if not representation.roundtrip(t).equal:
                ok = False
        ok = ok and count == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(1, f"round-trip over {sum(ROUNDTRIP_COUNTS.values()):,} topologies, "
                f"exact equality ({elapsed:.2f}s)", ok)


def test_criterion_02_dual_enumeration_oracle():
    start = time.perf_counter()
    ok = True
    for n, expected in EXPECTED_COUNTS.items():
        tops = family_route_topologies(n)
        pres = list(topology.enumerate_preorders(n))
        ok = ok and len(tops) == len(pres) == expected
        images = [t.rows for t in tops]
        ok = ok and len(set(images)) == len(images)  # injective
        ok = ok and set(images) == {p.rows for p in pres}  # surjective
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(2, f"subset-family and preorder counts agree 1/4/29/355, "
                f"specialization is a bijection ({elapsed:.2f}s)", ok)


def _test_families():
    for n in (1, 2, 3, 4):
        for t in topology.enumerate_topologies(n):
            yield representation.canonical_family(t)
    for n in (1, 2, 3):
        yield from small_index_families(n, max_indices=2)


def test_criterion_03_balls_open_and_subbase():
    ok = True
    for q in _test_families():
        t = qmetric.to_topology(q)  # internally asserts = subbase closure
        opens = set(opens_of(t))
        balls = [ball for rows in q.rows for ball in rows]
        ok = ok and all(b in opens for b in balls)
        generated = topology.generate_from_subbase(q.space, balls)
        ok = ok and generated == t
    _verdict(3, "every ball is open and the balls form a subbase "
                "(canonical n<=4, one/two-index families n<=3)", ok)


def test_criterion_04_d_u_equals_p_u():
    ok = True
    for n in (1, 2, 3, 4):
        for t in topology.enumerate_topologies(n):
            rows = dict(zip(opens_of(t), representation.canonical_family(t).rows))
            for u in opens_of(t):
                for x in range(n):
                    for y in range(n):
                        d = d_U(t, u, x, y)
                        if p_U(t, u, x, y) != d or (not rows[u][x] >> y & 1) != d:
                            ok = False
    _verdict(4, "p_U and d_U agree pointwise on every open, and with the "
                "canonical family's zero rows, n<=4", ok)


def test_criterion_05_convergence_equivalence(monkeypatch):
    monkeypatch.setattr(qmetric, "CROSS_CHECK_HORIZON", 512)
    disagreements = 0
    for n in (1, 2, 3):
        sequences = all_eventually_periodic(PointSpace(n))
        for t in topology.enumerate_topologies(n):
            cf = representation.canonical_family(t)
            for seq in sequences:
                for x in range(n):
                    right = qmetric.right_converges(seq, cf, x)
                    topo = qmetric.converges_topologically(seq, t, x)
                    prod = qmetric.product_converges(seq, cf, x)
                    if not right == topo == prod:
                        disagreements += 1
    _verdict(5, "right = topological = product convergence over all canonical "
                "families n<=3 and eventually-periodic sequences "
                f"({disagreements} disagreements)", disagreements == 0)


def test_criterion_06_continuity_equivalence():
    start = time.perf_counter()
    by_size = {n: list(topology.enumerate_topologies(n)) for n in (1, 2, 3)}
    families = {}
    for tops in by_size.values():
        for t in tops:
            families[t] = representation.canonical_family(t)
    disagreements = 0
    checked = 0
    for nd, nc in product((1, 2, 3), repeat=2):
        dom, cod = PointSpace(nd), PointSpace(nc)
        maps = [PointMap(dom, cod, values)
                for values in product(range(nc), repeat=nd)]
        for td in by_size[nd]:
            qd = families[td]
            for tc in by_size[nc]:
                qc = families[tc]
                for f in maps:
                    checked += 1
                    metric = all(metric_continuous_at(f, qd, qc, x)
                                 for x in range(nd))
                    if not metric == opens_continuous(f, td, tc) == \
                            is_continuous(f, td, tc):
                        disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0 and checked >= 29 * 29 * 27
    _verdict(6, f"metric continuity = preimage continuity = monotone rows over {checked} "
                f"map/topology combinations ({disagreements} disagreements, "
                f"{elapsed:.2f}s)", ok)


def test_criterion_07_separation_characterizations(capsys):
    ok = True
    for n in (1, 2, 3, 4):
        for t in topology.enumerate_topologies(n):
            cf = representation.canonical_family(t)
            ok = ok and qmetric.sep_metric(cf, "t0_unordered") == topology.is_t0(t)
            ok = ok and qmetric.sep_metric(cf, "t1_amended") == topology.is_t1(t)
            if n >= 2:
                ok = ok and not qmetric.sep_metric(cf, "literal_r4")
                ok = ok and not qmetric.sep_metric(cf, "literal_r5")
    code = cli_main(["discrepancy", "--left", "literal_r5", "--right", "direct-t2",
                     "--n", "3", "--indices", "1"])
    out = capsys.readouterr().out
    report = json.loads(out)
    witness = parse_document(json.dumps(report["witness"]))
    documented = (zero_rows([[0, 1, 0], [1, 0, 0], [1, 1, 0]]),)
    ok = ok and code == 1 and report["verdict"] == "witness"
    ok = ok and witness.rows == documented
    with capsys.disabled():
        _verdict(7, "t0/t1 metric characterizations hold on n<=4; literal "
                    "r4/r5 conditions unsatisfiable for canonical families; "
                    "documented discrepancy witness emitted", ok)


def test_criterion_08_statistical_convergence(monkeypatch):
    cf = representation.canonical_family(sierpinski())
    space = cf.space
    squares_dip = SequenceSpec(space, 1, ((Squares(), 0),))
    res = qmetric.stat_converges(squares_dip, cf, 1)
    ok = res.verdict == "true"
    ok = ok and not qmetric.right_converges(squares_dip, cf, 1)
    report = {r.index: r for r in res.per_index}["[1]"]
    ok = ok and report.density.kind == "zero_by_bound"
    ok = ok and report.empirical == ((10**3, 31), (10**4, 100), (10**5, 316),
                                     (10**6, 1000))
    ok = ok and Fraction(1000, 10**6) == Fraction(1, 1000)
    densities = [Fraction(c, h) for h, c in report.empirical]
    ok = ok and all(a >= b for a, b in zip(densities, densities[1:]))
    ok = ok and densities[-1] == Fraction(1, 1000)

    thirds = SequenceSpec(space, 0, ((ResidueClasses(3, (0,)), 1),))
    edge = matrix_family(2, [[0, 1], [0, 0]])
    monkeypatch.setattr(qmetric, "EMPIRICAL_HORIZONS", (10**3, 10**4))
    res2 = qmetric.stat_converges(thirds, edge, 0)
    ok = ok and res2.verdict == "false"
    ok = ok and res2.per_index[0].density.value == Fraction(1, 3)
    _verdict(8, "squares deviation converges statistically but not in order, "
                "with the exact empirical ladder; density-1/3 deviation fails", ok)


def test_criterion_09_continuity_spaces():
    ok = True
    for k in (1, 2, 3):
        sg = semigroup_zero_one_pow(k)
        ok = ok and continuity.check_value_semigroup(sg) == []
        ok = ok and continuity.check_positives(
            PositiveSet(sg, tuple(range(sg.size)))) == []
    for n in (1, 2, 3):
        for q in small_index_families(n, max_indices=2):
            lifted = lift_quasifamily(q)
            if to_topology_kopperman(lifted) != qmetric.to_topology(q):
                ok = False
    xor = ValueSemigroup(("0", "1"), ((0, 1), (1, 0)), zero=0, infinity=1)
    ok = ok and any(v.axiom == "absorbing"
                    for v in continuity.check_value_semigroup(xor))
    sg1 = semigroup_zero_one_pow(1)
    ok = ok and any(v.axiom == "order-separation" and v.witness == (1, 0)
                    for v in continuity.check_positives(PositiveSet(sg1, (1,))))
    _verdict(9, "pointwise-max cubes satisfy all axioms, Kopperman route "
                "equals the family topology (|I|<=2, n<=3), mutants rejected "
                "with correct axioms", ok)


def test_criterion_10_mutants_and_cli_contract(tmp_path, capsys):
    ok = True
    # seeded axiom violations with exact witnesses
    non_transitive = matrix_family(3, [[0, 0, 1], [1, 0, 0], [1, 1, 0]])
    tri = qmetric.check_quasifamily(non_transitive)
    ok = ok and [(v.kind, v.points) for v in tri] == [("triangle", (0, 1, 2))]

    refl = qmetric.check_quasifamily(matrix_family(2, [[0, 0], [0, 1]]))
    ok = ok and ("nonzero-self-distance", (1,)) in [(v.kind, v.points) for v in refl]

    space = PointSpace(2)
    escape = topology.check_topology(
        space, [space.subset([]), space.subset([0]), space.subset([1])])
    kinds = {v.kind for v in escape}
    ok = ok and kinds == {"no-full-set", "union-escape"}
    ok = ok and any(v.kind == "union-escape" and v.witness == ((0,), (1,))
                    for v in escape)

    # black-box exit-code matrix
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    sier = write("sier.json", '{"kind":"topology","n":2,"opens":[[],[1],[0,1]]}')
    bad = write("bad.json", '{"kind":"qmetric","n":2,"indices":["i0"],'
                            '"matrices":[[[0,0],[0,1]]]}')
    trunc = write("trunc.json", '{"kind":')
    squares = write("squares.json", '{"kind":"sequence","n":2,"default":1,'
                                    '"rules":[{"set":{"type":"squares"},"point":0}]}')
    undecided = write("undecided.json",
                      '{"kind":"sequence","n":2,"default":0,"rules":['
                      '{"set":{"type":"residues","mod":9973,"residues":[0]},"point":1},'
                      '{"set":{"type":"residues","mod":9967,"residues":[1]},"point":1}]}')
    edge = write("edge.json", '{"kind":"qmetric","n":2,"indices":["i0"],'
                              '"matrices":[[[0,1],[0,0]]]}')
    matrix = [
        (["check", sier, "--kind", "topology"], 0),
        (["check", bad, "--kind", "qmetric"], 1),
        (["check", trunc, "--kind", "topology"], 2),
        (["canonical", trunc], 2),
        (["roundtrip", "--n", "2"], 0),
        (["roundtrip", "--n", "9"], 2),
        (["separation", sier, "--method", "direct"], 0),
        (["converge", squares, sier, "--point", "1", "--mode", "statistical"], 0),
        (["converge", squares, sier, "--point", "1", "--mode", "right"], 1),
        (["converge", undecided, edge, "--point", "0", "--mode", "statistical"], 0),
        (["converge", undecided, edge, "--point", "0", "--mode", "statistical",
          "--strict"], 1),
        (["enumerate", "--n", "3", "--kind", "topologies", "--count-only"], 0),
        (["enumerate", "--n", "9", "--kind", "topologies"], 2),
        (["discrepancy", "--left", "literal_r5", "--right", "direct-t2",
          "--n", "3", "--indices", "1"], 1),
        (["discrepancy", "--left", "t0_unordered", "--right", "direct-t0",
          "--n", "2", "--indices", "1"], 0),
        (["discrepancy", "--left", "nope", "--right", "direct-t0",
          "--n", "2", "--indices", "1"], 2),
    ]
    for argv, expected in matrix:
        code = cli_main(argv)
        capsys.readouterr()
        if code != expected:
            ok = False
    with capsys.disabled():
        _verdict(10, "seeded mutants detected with exact witnesses; CLI "
                     "exit-code matrix honours the 0/1/2 contract", ok)


# Statements (3)-(5) of the paper: the literal condition (`qmetric.PREDICATES`)
# at every ordered pair of distinct points, read as a characterisation of
# the axiom it is offered for.  Each witness is a space on which the axiom
# holds but the condition fails.
SIERPINSKI_DOC = {"kind": "topology", "n": 2, "opens": [[], [1], [0, 1]]}
TWO_INDEX_DOC = {"kind": "qmetric", "n": 2, "indices": ["i0", "i1"],
                 "matrices": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]}


def _statement_verdict(num, statement, method, axiom, witness, name, tmp_path, capsys):
    start = time.perf_counter()
    families = [q for n in (1, 2, 3) for q in small_index_families(n, max_indices=2)]
    meeting = [q for q in families if qmetric.sep_metric(q, method)]
    is_axiom = getattr(topology, f"is_{axiom}")
    if_half = bool(meeting) and all(is_axiom(qmetric.to_topology(q)) for q in meeting)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code = cli_main(["separation", str(path), "--method", method])
    detail = json.loads(capsys.readouterr().out)["detail"]
    only_if_fails = (code, detail["condition"], detail["direct"]) == (1, False, True)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _verdict(num, f"statement ({statement}) fails: {method} at every pair implies "
                      f"{axiom.upper()} on the {len(meeting)} of {len(families)} families "
                      f"(|I|<=2, n<=3) that meet it, but {name} is {axiom.upper()} and "
                      f"fails it ({elapsed:.2f}s)",
                 if_half and only_if_fails and elapsed < 1.0)


def test_criterion_11_statement_3_t0(tmp_path, capsys):
    _statement_verdict(11, 3, "literal_r3", "t0", SIERPINSKI_DOC,
                       "the Sierpinski space", tmp_path, capsys)


def test_criterion_12_statement_4_t1(tmp_path, capsys):
    _statement_verdict(12, 4, "literal_r4", "t1", TWO_INDEX_DOC,
                       "a two-index family on 2 points", tmp_path, capsys)


def test_criterion_13_statement_5_t2(tmp_path, capsys):
    _statement_verdict(13, 5, "literal_r5", "t2", TWO_INDEX_DOC,
                       "a two-index family on 2 points", tmp_path, capsys)


# Two nets on the two-element chain a <= b, eventually at 1 and eventually at
# 0, so one converges to point 1 of the discrete space TWO_INDEX_DOC and one
# does not.
CONVERGING_NET, DIVERGING_NET = (
    {"kind": "net", "n": 2, "elements": ["a", "b"], "order": [[1, 1], [0, 1]],
     "assignment": assignment} for assignment in ([0, 1], [1, 0]))


def test_criterion_14_statement_1_convergence(monkeypatch, tmp_path, capsys):
    """Statement (1): a sequence right-converges to x in the family iff it
    converges to x in the generated topology, iff it converges in every
    index at once.  Criterion 05 covers canonical families; here every
    family of at most 2 indices on n <= 2 and a seeded sample of families
    on 3 points that are no topology's canonical family, and the nets.  As
    criteria 11-13 re-check their witnesses, one net per verdict goes
    through `qmtop converge` in each of the three modes."""
    monkeypatch.setattr(qmetric, "CROSS_CHECK_HORIZON", 512)
    start = time.perf_counter()
    families = [q for n in (1, 2) for q in small_index_families(n)]
    others = [q for q in small_index_families(3) if q.rows !=
              representation.canonical_family(qmetric.to_topology(q)).rows]
    families += random.Random(14).sample(others, 32)
    disagreements = checked = 0
    for q in families:
        n, t = q.space.n, qmetric.to_topology(q)
        for seq in all_eventually_periodic(q.space):
            for x in range(n):
                checked += 1
                right = qmetric.right_converges(seq, q, x)
                topo = qmetric.converges_topologically(seq, t, x)
                disagreements += not right == topo == qmetric.product_converges(seq, q, x)
    sequences_s = time.perf_counter() - start
    net_disagreements = sum(map(net_convergence_disagreements, (1, 2, 3)))
    space = tmp_path / "space.json"
    space.write_text(json.dumps(TWO_INDEX_DOC))
    cli_codes = []
    for name, net in (("converging", CONVERGING_NET), ("diverging", DIVERGING_NET)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(net))
        for mode in ("right", "topological", "product"):
            cli_codes.append(cli_main(["converge", str(path), str(space), "--point", "1",
                                       "--mode", mode]))
            capsys.readouterr()
    with capsys.disabled():
        _verdict(14, f"statement (1) holds: right = topological = product convergence on "
                     f"{checked} (family, eventually-periodic sequence, point) cases, "
                     f"|I|<=2 on n<=2 and 32 non-canonical families on n=3 "
                     f"({disagreements} disagreements, {sequences_s:.2f}s), and on every "
                     f"net over a directed preorder of <=3 elements, |I|<=2, n<=3 "
                     f"({net_disagreements} disagreements); through the CLI a net that "
                     f"converges exits 0 and one that does not exits 1 in all three modes",
                 disagreements == net_disagreements == 0 and sequences_s < 1.5
                 and cli_codes == [0, 0, 0, 1, 1, 1])


def test_criterion_15_statement_2_continuity():
    """Statement (2): f is continuous at x iff for each codomain index j some
    domain index i has d_i(x, y) = 0 imply p_j(f(x), f(y)) = 0
    (`helpers.metric_continuous_at`).  On finite spaces f is continuous at x
    iff it maps x's least open set, the meet of the balls at x, into f(x)'s
    (`helpers.is_continuous`).  "If" always holds: each ball at x holds the
    meet.  "Only if" holds where the domain family is directed at x, where
    some index's ball at x is the meet; at any other point the map sending
    the meet to the open point of the Sierpinski space and the rest to the
    closed point is continuous and fails the condition.  Checked on every
    family of at most 2 indices on n <= 3, every codomain of at most 2
    indices on n <= 2 and every map."""
    start = time.perf_counter()
    domains = [q for n in (1, 2, 3) for q in small_index_families(n)]
    codomains = [(p, qmetric.to_topology(p).rows)
                 for n in (1, 2) for p in small_index_families(n)]
    maps = {(nd, nc): [PointMap(PointSpace(nd), PointSpace(nc), values)
                       for values in product(range(nc), repeat=nd)]
            for nd in (1, 2, 3) for nc in (1, 2)}
    checked = counterexamples = 0
    undirected_families = 0
    decision_agrees = True
    sier_t = sierpinski()
    sier = representation.canonical_family(sier_t)
    for q in domains:
        n, t = q.space.n, qmetric.to_topology(q)
        meet = qmetric.ball_meet(q)
        directed = [any(index[x] == meet[x] for index in q.rows) for x in range(n)]
        undirected_families += not all(directed)
        failing = set()
        for p, codomain_rows in codomains:
            for f in maps[n, p.space.n]:
                for x in range(n):
                    checked += 1
                    continuous = not t.rows[x] & ~f.preimage_mask(codomain_rows[f(x)])
                    metric = metric_continuous_at(f, q, p, x)
                    if metric and not continuous or directed[x] and continuous and not metric:
                        counterexamples += 1
                    if continuous != metric:
                        failing.add(x)
        for x in range(n):
            if not directed[x]:
                f = PointMap(q.space, sier.space,
                             tuple(meet[x] >> y & 1 for y in range(n)))
                decision_agrees = decision_agrees and \
                    is_continuous(f, t, sier_t) and \
                    not metric_continuous_at(f, q, sier, x)
        decision_agrees = decision_agrees and \
            failing == {x for x in range(n) if not directed[x]}
    elapsed = time.perf_counter() - start
    domain = matrix_family(3, [[0, 1, 1], [1, 0, 1], [0, 1, 0]],
                           [[0, 1, 1], [1, 0, 1], [1, 0, 0]])
    discrete = matrix_family(2, [[0, 1], [1, 0]])
    f = PointMap(domain.space, discrete.space, (0, 0, 1))
    witness = domain.rows == ((0b001, 0b010, 0b101), (0b001, 0b010, 0b110)) and \
        is_continuous(f, qmetric.to_topology(domain), qmetric.to_topology(discrete)) \
        and not metric_continuous_at(f, domain, discrete, 2)
    _verdict(15, "statement (2) fails as stated; its 'if' half always holds, and its "
                 "'only if' half holds exactly at points where the domain family is "
                 f"directed ({checked:,} (family, codomain, map, point) cases, |I|<=2 "
                 f"on n<=3 into |J|<=2 on n<=2, {counterexamples} counterexamples; "
                 f"{undirected_families} of {len(domains)} families are not directed "
                 "at some point, where the Sierpinski map fails it; smallest witness "
                 f"f = (0, 0, 1) into the discrete 2-point space, {elapsed:.2f}s)",
             counterexamples == 0 and decision_agrees and witness
             and undirected_families == 69 and checked == 160_372 and elapsed < 1.5)
