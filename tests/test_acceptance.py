"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import time
from fractions import Fraction
from itertools import product

from qmtop.cli import main as cli_main
from qmtop.core import (
    PointMap,
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
    all_eventually_periodic,
    d_U,
    family_route_topologies,
    matrix_family,
    opens_continuous,
    opens_of,
    p_U,
    sierpinski,
    small_index_families,
    zero_rows,
)

EXPECTED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_roundtrip_theorem():
    start = time.perf_counter()
    ok = True
    for n, expected in EXPECTED_COUNTS.items():
        count = 0
        for t in topology.enumerate_topologies(n):
            count += 1
            if not representation.roundtrip(t).equal:
                ok = False
        ok = ok and count == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(1, f"round-trip over 389 topologies, exact equality ({elapsed:.2f}s)", ok)


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
        balls = [qmetric.ball(q, label, x) for label in q.indices
                 for x in q.space.points()]
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


def test_criterion_05_convergence_equivalence():
    disagreements = 0
    for n in (1, 2, 3):
        sequences = all_eventually_periodic(PointSpace(n))
        for t in topology.enumerate_topologies(n):
            cf = representation.canonical_family(t)
            for seq in sequences:
                for x in range(n):
                    right = qmetric.right_converges(seq, cf, x)
                    topo = topology.converges_topologically(seq, t, x, horizon=512)
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
                    metric = all(qmetric.metric_continuous_at(f, qd, qc, x)
                                 for x in range(nd))
                    if not metric == opens_continuous(f, td, tc) == \
                            topology.is_continuous(f, td, tc):
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


def test_criterion_08_statistical_convergence():
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
    densities = report.empirical_densities
    ok = ok and all(a >= b for a, b in zip(densities, densities[1:]))
    ok = ok and densities[-1] == Fraction(1, 1000)

    thirds = SequenceSpec(space, 0, ((ResidueClasses(3, (0,)), 1),))
    edge = matrix_family(2, [[0, 1], [0, 0]])
    res2 = qmetric.stat_converges(thirds, edge, 0, horizons=(10**3, 10**4))
    ok = ok and res2.verdict == "false"
    ok = ok and res2.per_index[0].density.value == Fraction(1, 3)
    _verdict(8, "squares deviation converges statistically but not in order, "
                "with the exact empirical ladder; density-1/3 deviation fails", ok)


def test_criterion_09_continuity_spaces():
    ok = True
    for k in (1, 2, 3):
        sg = continuity.semigroup_zero_one_pow(k)
        ok = ok and continuity.check_value_semigroup(sg) == []
        ok = ok and continuity.check_positives(
            PositiveSet(sg, tuple(range(sg.size)))) == []
    for n in (1, 2, 3):
        for q in small_index_families(n, max_indices=2):
            lifted = continuity.lift_quasifamily(q)
            if continuity.to_topology_kopperman(lifted) != qmetric.to_topology(q):
                ok = False
    xor = ValueSemigroup(("0", "1"), ((0, 1), (1, 0)), zero=0, infinity=1)
    ok = ok and any(v.axiom == "absorbing"
                    for v in continuity.check_value_semigroup(xor))
    sg1 = continuity.semigroup_zero_one_pow(1)
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
