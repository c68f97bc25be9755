import hashlib
import io
import json
import pathlib
import subprocess
import sys
import time

import pytest

from qmtop import cli, core, qmetric, representation, topology
from qmtop.cli import main
from qmtop.core import MAX_SET_DEPTH, PointSpace, members, parse_document, serialize
from qmtop.qmetric import check_quasifamily, predicate_pairs, separation_pair, to_topology
from qmtop.topology import is_t2

from helpers import (
    canonical_route_separation,
    family_route_separation,
    object_route_documents,
    opens_of,
    sierpinski,
    small_index_families,
)

SIER = '{"kind":"topology","n":2,"opens":[[],[1],[0,1]]}'
BAD_QMETRIC = '{"kind":"qmetric","n":3,"indices":["i0"],"matrices":[[[0,0,1],[1,0,0],[1,1,0]]]}'
SQUARES_SEQ = '{"kind":"sequence","n":2,"default":1,"rules":[{"set":{"type":"squares"},"point":0}]}'
THIRDS_SEQ = ('{"kind":"sequence","n":2,"default":0,'
              '"rules":[{"set":{"type":"residues","mod":3,"residues":[0]},"point":1}]}')
UNDECIDED_SEQ = ('{"kind":"sequence","n":2,"default":0,"rules":['
                 '{"set":{"type":"residues","mod":9973,"residues":[0]},"point":1},'
                 '{"set":{"type":"residues","mod":9967,"residues":[1]},"point":1}]}')
EDGE_FAMILY = '{"kind":"qmetric","n":2,"indices":["i0"],"matrices":[[[0,1],[0,0]]]}'


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_exit_codes(files, capsys):
    ok = files("sier.json", SIER)
    code, out = run(capsys, "check", ok, "--kind", "topology")
    assert code == 0 and json.loads(out)["verdict"] == "pass"

    bad = files("bad.json", BAD_QMETRIC)
    code, out = run(capsys, "check", bad, "--kind", "qmetric")
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "fail"
    assert report["detail"]["violations"][0]["kind"] == "triangle"
    assert report["detail"]["violations"][0]["points"] == [0, 1, 2]

    trunc = files("trunc.json", '{"kind":"topo')
    assert run(capsys, "check", trunc, "--kind", "topology")[0] == 2


def test_canonical_and_topology_pipe(files, capsys):
    sier = files("sier.json", SIER)
    code, out = run(capsys, "canonical", sier)
    assert code == 0
    family_doc = out.strip()
    fam = files("fam.json", family_doc)
    code, out = run(capsys, "topology", fam)
    assert code == 0 and out.strip() == SIER

    bad = files("bad.json", BAD_QMETRIC)
    assert run(capsys, "canonical", bad)[0] == 2


def test_roundtrip_command(files, capsys):
    code, out = run(capsys, "roundtrip", "--n", "2")
    report = json.loads(out)
    assert code == 0
    assert report["detail"]["message"] == "4 topologies, 4 equal"

    sier = files("sier.json", SIER)
    assert run(capsys, "roundtrip", sier)[0] == 0
    assert run(capsys, "roundtrip", "--n", "5")[0] == 2


def test_roundtrip_enumeration_witness_is_the_least_failing_document(monkeypatch, capsys):
    """`roundtrip --n` checks spaces in kernel order; its witness is the
    failing space that comes first in canonical order, the least document."""
    real = representation.roundtrip

    def failing(t):
        report = real(t)
        return representation.RoundtripReport(False, (), ()) if len(opens_of(t)) == 4 else report

    monkeypatch.setattr(representation, "roundtrip", failing)
    failed = sorted(serialize(t) for t in topology.enumerate_topologies(3)
                    if len(opens_of(t)) == 4)
    code, out = run(capsys, "roundtrip", "--n", "3")
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "fail" and len(failed) > 1
    assert report["detail"]["equal"] == 29 - len(failed)
    assert json.dumps(report["witness"], separators=(",", ":")) == failed[0]


def test_separation_methods(files, capsys):
    sier = files("sier.json", SIER)
    code, out = run(capsys, "separation", sier, "--method", "direct")
    detail = json.loads(out)["detail"]
    assert code == 0
    assert (detail["t0"], detail["t1"], detail["t2"]) == (True, False, False)

    code, out = run(capsys, "separation", sier, "--method", "metric")
    detail = json.loads(out)["detail"]
    assert code == 0
    assert (detail["t0"], detail["t1"], detail["t2"]) == (True, False, False)
    assert detail["disagreements"] == []

    witness = files("witness.json",
                    '{"kind":"qmetric","n":3,"indices":["i0"],'
                    '"matrices":[[[0,1,0],[1,0,0],[1,1,0]]]}')
    code, out = run(capsys, "separation", witness, "--method", "literal_r5")
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "fail"
    assert {tuple(p["pair"]) for p in report["detail"]["disagreeing_pairs"]} == \
        {(0, 1), (1, 0)}


def test_converge_modes(files, capsys):
    sier = files("sier.json", SIER)
    seq = files("squares.json", SQUARES_SEQ)

    code, out = run(capsys, "converge", seq, sier, "--point", "1", "--mode", "statistical")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "pass"
    per_index = {r["index"]: r for r in report["detail"]["per_index"]}
    assert per_index["[1]"]["density"]["kind"] == "zero_by_bound"
    ladder = [e["density"] for e in per_index["[1]"]["empirical"]]
    assert ladder == sorted(ladder, reverse=True)

    assert run(capsys, "converge", seq, sier, "--point", "1", "--mode", "right")[0] == 1
    assert run(capsys, "converge", seq, sier, "--point", "1", "--mode", "topological")[0] == 1

    alt = files("alt.json", '{"kind":"sequence","n":2,"default":1,'
                            '"rules":[{"set":{"type":"residues","mod":2,"residues":[1]},'
                            '"point":0}]}')
    for mode in ("right", "topological", "product"):
        assert run(capsys, "converge", alt, sier, "--point", "0", "--mode", mode)[0] == 0

    const = files("const.json", '{"kind":"sequence","n":2,"default":1}')
    for mode in ("right", "left", "cauchy", "topological", "product", "statistical"):
        assert run(capsys, "converge", const, sier, "--point", "1", "--mode", mode)[0] == 0


def test_converge_space_kinds_interchange(files, capsys):
    # a family document works for topological mode and a topology document
    # works for the metric modes (lifted through its canonical family)
    code, out = run(capsys, "canonical", files("sier.json", SIER))
    assert code == 0
    fam = files("fam.json", out.strip())
    alt = files("alt.json", '{"kind":"sequence","n":2,"default":1,'
                            '"rules":[{"set":{"type":"residues","mod":2,"residues":[1]},'
                            '"point":0}]}')
    assert run(capsys, "converge", alt, fam, "--point", "0",
               "--mode", "topological")[0] == 0
    assert run(capsys, "converge", alt, fam, "--point", "0", "--mode", "right")[0] == 0

    code, out = run(capsys, "separation", fam, "--method", "metric")
    detail = json.loads(out)["detail"]
    assert code == 0
    assert (detail["t0"], detail["t1"], detail["t2"]) == (True, False, False)


def test_enumerate_five_points(capsys):
    code, out = run(capsys, "enumerate", "--n", "5", "--kind", "topologies",
                    "--count-only")
    assert code == 0 and out.strip() == "6942"


def test_converge_statistical_verdicts(files, capsys):
    edge = files("edge.json", EDGE_FAMILY)
    thirds = files("thirds.json", THIRDS_SEQ)
    code, out = run(capsys, "converge", thirds, edge, "--point", "0",
                    "--mode", "statistical")
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "fail"
    density = report["detail"]["per_index"][0]["density"]
    assert (density["numerator"], density["denominator"]) == (1, 3)

    undecided = files("undecided.json", UNDECIDED_SEQ)
    code, out = run(capsys, "converge", undecided, edge, "--point", "0",
                    "--mode", "statistical")
    assert code == 0 and json.loads(out)["verdict"] == "undecided"
    code, _ = run(capsys, "converge", undecided, edge, "--point", "0",
                  "--mode", "statistical", "--strict")
    assert code == 1


def test_converge_statistical_huge_modulus(files, capsys):
    """A residue class modulo 10^12 has an exact density and is scanned
    without a table the size of the modulus."""
    sparse = files("sparse.json", '{"kind":"sequence","n":2,"default":0,"rules":[{"set":'
                                  '{"type":"residues","mod":1000000000000,"residues":[0,1]},'
                                  '"point":1}]}')
    code, out = run(capsys, "converge", sparse, files("edge.json", EDGE_FAMILY),
                    "--point", "0", "--mode", "statistical")
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "fail"
    entry = report["detail"]["per_index"][0]
    assert entry["density"] == {"kind": "exact", "numerator": 1, "denominator": 500000000000}
    assert [e["count"] for e in entry["empirical"]] == [1, 1, 1, 1]

    # Its complement would need 10^12 explicit residues: unknown, not a crash.
    dense = files("dense.json", '{"kind":"sequence","n":2,"default":0,"rules":[{"set":'
                                '{"type":"complement","of":{"type":"residues",'
                                '"mod":1000000000000,"residues":[0]}},"point":1}]}')
    code, out = run(capsys, "converge", dense, files("edge.json", EDGE_FAMILY),
                    "--point", "0", "--mode", "statistical")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "undecided"
    assert report["detail"]["per_index"][0]["density"]["kind"] == "unknown"


def test_converge_statistical_huge_finite_member(files, capsys):
    """A finite member far past the scanned positions and past int64 leaves
    an exact density of zero."""
    seq = files("huge.json", '{"kind":"sequence","n":2,"default":0,"rules":[{"set":'
                             '{"type":"finite","members":[100000000000000000000]},'
                             '"point":1}]}')
    code = main(["converge", seq, files("edge.json", EDGE_FAMILY),
                 "--point", "0", "--mode", "statistical"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    entry = json.loads(captured.out)["detail"]["per_index"][0]
    assert entry["density"] == {"kind": "exact", "numerator": 0, "denominator": 1}
    assert [e["count"] for e in entry["empirical"]] == [0, 0, 0, 0]


def _nested_complements(depth: int) -> str:
    inner = '{"type":"squares"}'
    for _ in range(depth - 1):
        inner = '{"type":"complement","of":' + inner + '}'
    return '{"kind":"sequence","n":2,"default":0,"rules":[{"set":' + inner + ',"point":1}]}'


@pytest.mark.parametrize("depth, message", [(MAX_SET_DEPTH + 1, "nest at most"),
                                            (3000, "nested too deeply")],
                         ids=["over the cap", "too deep for json"])
def test_deep_nesting_is_input_error(depth, message, files, capsys):
    seq = files("deep.json", _nested_complements(depth))
    code = main(["converge", seq, files("edge.json", EDGE_FAMILY),
                 "--point", "0", "--mode", "right"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err


def test_deepest_allowed_nesting_is_decided(files, capsys):
    seq = files("deep.json", _nested_complements(MAX_SET_DEPTH))
    for mode in ("right", "statistical"):
        code = main(["converge", seq, files("edge.json", EDGE_FAMILY),
                     "--point", "0", "--mode", mode])
        assert code in (0, 1) and capsys.readouterr().out


@pytest.mark.parametrize("rules", ["null", "5", '"squares"', "{}"])
def test_rules_must_be_a_list(rules, files, capsys):
    seq = files("seq.json", '{"kind":"sequence","n":2,"default":0,"rules":' + rules + '}')
    code = main(["converge", seq, files("edge.json", EDGE_FAMILY),
                 "--point", "0", "--mode", "right"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "'rules' must be a list" in captured.err


def test_topological_horizon_is_bounded(files, capsys):
    """The cross-check evaluates every position up to the horizon, so a
    horizon past the statistical scan's top one is an input error, not an
    allocation of gigabytes."""
    seq = files("const.json", '{"kind":"sequence","n":2,"default":1}')
    sier = files("sier.json", SIER)
    top = max(qmetric.EMPIRICAL_HORIZONS)
    for horizon in (top + 1, 10**9, 10**30):
        code = main(["converge", seq, sier, "--point", "1", "--mode", "topological",
                     "--horizon", str(horizon)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"at most {top}" in captured.err
    code, out = run(capsys, "converge", seq, sier, "--point", "1", "--mode", "topological",
                    "--horizon", str(top))
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_topological_horizon_must_be_positive(files, capsys):
    """A horizon below 1 would skip the tail cross-check without a word."""
    seq = files("const.json", '{"kind":"sequence","n":2,"default":1}')
    sier = files("sier.json", SIER)
    for horizon in (0, -1, -10**9):
        code = main(["converge", seq, sier, "--point", "1", "--mode", "topological",
                     "--horizon", str(horizon)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --horizon must be at least 1\n"
    assert run(capsys, "converge", seq, sier, "--point", "1", "--mode", "topological",
               "--horizon", "1")[0] == 0


def test_roundtrip_file_and_n_is_input_error(files, capsys):
    code = main(["roundtrip", files("sier.json", SIER), "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: roundtrip takes a topology file or --n, not both\n"


@pytest.mark.parametrize("method", ["direct", "metric", "literal_r3", "literal_r4",
                                    "literal_r5"])
def test_separation_builds_each_route_once(method, monkeypatch, files, capsys):
    """A topology document is read as its specialization rows, without its
    canonical family or a regenerated topology; a family document pays for
    its generated topology once, and for its symmetric mask once only under
    the literal R4 and R5, the two methods that read it."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(representation, "canonical_family")
    count(qmetric, "to_topology")
    count(qmetric, "separation_pair")
    sier = files("sier.json", SIER)
    assert run(capsys, "separation", sier, "--method", method)[0] in (0, 1)
    assert calls == {}
    family = run(capsys, "canonical", sier)[1]
    calls.clear()
    assert run(capsys, "separation", files("fam.json", family), "--method", method)[0] in (0, 1)
    expected = {"to_topology": 1}
    if method in ("literal_r4", "literal_r5"):
        expected["separation_pair"] = 1
    assert calls == expected


def _top_point_family(n: int) -> str:
    """One index on n points whose last point lies above every other point
    and no other two points are comparable."""
    top = n - 1
    matrix = [[0 if y in (x, top) else 1 for y in range(n)] for x in range(n)]
    return json.dumps({"kind": "qmetric", "n": n, "indices": ["i0"], "matrices": [matrix]})


def test_separation_on_sixteen_points_with_a_top(files, capsys):
    """Every open but the empty one holds the top point, so no two points are
    T2 while every pair avoiding the top is separated both ways by the one
    index.  The 32,769 opens make a scan over pairs of opens take hours."""
    n, top = 16, 15
    family = files("top.json", _top_point_family(n))
    start = time.perf_counter()
    code, out = run(capsys, "separation", family, "--method", "literal_r5")
    detail = json.loads(out)["detail"]
    assert code == 1 and detail["condition"] is False and detail["direct"] is False
    pairs = [tuple(p["pair"]) for p in detail["disagreeing_pairs"]]
    assert pairs == [(x, y) for x in range(top) for y in range(top) if x != y]
    assert len(pairs) == 210
    assert all(p["literal_r5"] is True and p["t2"] is False
               for p in detail["disagreeing_pairs"])

    code, out = run(capsys, "topology", family)
    assert code == 0 and len(json.loads(out)["opens"]) == 2**15 + 1
    code, out = run(capsys, "separation", files("top_t.json", out), "--method", "direct")
    assert code == 0
    assert json.loads(out)["detail"] == {"method": "direct", "t0": True, "t1": False,
                                         "t2": False}
    assert time.perf_counter() - start < 60


def test_converge_on_twelve_points_reads_the_tail_once(files, capsys):
    """Right and product convergence on the 12-point discrete space, whose
    canonical family has 4,096 indices, of a sequence that is eventually 5
    but whose rule moduli have lcm 9,240: one mask of recurrent values per
    sequence, not a scan over 36,960 tail types per index."""
    opens = [[p for p in range(12) if u >> p & 1] for u in range(4096)]
    disc = files("disc12.json", json.dumps({"kind": "topology", "n": 12, "opens": opens}))
    rules = [{"set": {"type": "finite", "members": [1, 4]}, "point": 3}]
    rules += [{"set": {"type": "residues", "mod": m, "residues": [1]}, "point": 5}
              for m in (8, 3, 5, 7, 11)]
    seq = files("seq.json", json.dumps({"kind": "sequence", "n": 12, "default": 5,
                                        "rules": rules}))
    start = time.perf_counter()
    for mode in ("right", "product"):
        for point, code in ((5, 0), (3, 1)):
            assert run(capsys, "converge", seq, disc, "--point", str(point),
                       "--mode", mode)[0] == code
    assert time.perf_counter() - start < 4


def _break_witness_recheck(monkeypatch, files):
    monkeypatch.setattr(representation, "discrepancy_pairs", lambda q, a, b: [])
    return ["discrepancy", "--left", "literal_r5", "--right", "t2", "--n", "3"]


def _break_dual_route(monkeypatch, files):
    monkeypatch.setattr(qmetric, "generate_from_subbase",
                        lambda space, subbase: parse_document(SIER))
    return ["topology", files("edge.json", EDGE_FAMILY)]


def _break_tail_verdict(monkeypatch, files):
    monkeypatch.setattr(topology._tails, "eventually_in", lambda seq, mask: True)
    return ["converge", files("squares.json", SQUARES_SEQ), files("sier.json", SIER),
            "--point", "1", "--mode", "topological"]


@pytest.mark.parametrize("breaks", [_break_witness_recheck, _break_dual_route,
                                    _break_tail_verdict],
                         ids=["witness re-check", "to_topology dual route",
                              "tail scan"])
def test_failed_self_check_is_internal_error(breaks, monkeypatch, files, capsys):
    code = main(breaks(monkeypatch, files))
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal error:") and captured.err.count("\n") == 1


BOOL_AS_INT = {
    "map from": '{"kind":"map","from":true,"to":2,"values":[0]}',
    "map to": '{"kind":"map","from":1,"to":true,"values":[0]}',
    "sequence default": '{"kind":"sequence","n":2,"default":true}',
    "rule point": '{"kind":"sequence","n":2,"default":0,'
                  '"rules":[{"set":{"type":"squares"},"point":true}]}',
    "residues mod": '{"kind":"sequence","n":2,"default":0,"rules":[{"set":'
                    '{"type":"residues","mod":true,"residues":[0]},"point":1}]}',
    "semigroup zero": '{"kind":"semigroup","elements":["0","1"],"add":[[0,1],[1,1]],'
                      '"zero":false,"infinity":1}',
    "semigroup infinity": '{"kind":"semigroup","elements":["0","1"],"add":[[0,1],[1,1]],'
                          '"zero":0,"infinity":true}',
}


@pytest.mark.parametrize("field", sorted(BOOL_AS_INT))
def test_bool_is_not_an_integer(field, files, capsys):
    doc = files("doc.json", BOOL_AS_INT[field])
    kind = json.loads(BOOL_AS_INT[field])["kind"]
    if kind == "sequence":
        argv = ["converge", doc, files("edge.json", EDGE_FAMILY), "--point", "0",
                "--mode", "right"]
    elif kind == "semigroup":
        argv = ["check", doc, "--kind", "semigroup"]
    else:  # no subcommand takes a map, but every one parses its document first
        argv = ["check", doc, "--kind", "topology"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must be an integer" in captured.err


def test_enumerate_command(files, capsys):
    code, out = run(capsys, "enumerate", "--n", "3", "--kind", "topologies",
                    "--count-only")
    assert code == 0 and out.strip() == "29"
    code, out = run(capsys, "enumerate", "--n", "3", "--kind", "preorders",
                    "--count-only")
    assert code == 0 and out.strip() == "29"

    code, first = run(capsys, "enumerate", "--n", "2", "--kind", "topologies")
    code2, second = run(capsys, "enumerate", "--n", "2", "--kind", "topologies")
    assert code == code2 == 0 and first == second
    docs = [json.loads(line) for line in first.strip().splitlines()]
    assert len(docs) == 4
    assert sorted(line for line in first.strip().splitlines()) == \
        first.strip().splitlines()

    code, out = run(capsys, "enumerate", "--n", "2", "--kind", "preorders")
    for line in out.strip().splitlines():
        q = parse_document(line)
        assert check_quasifamily(q) == []

    assert run(capsys, "enumerate", "--n", "9", "--kind", "topologies")[0] == 2


@pytest.fixture
def built(monkeypatch):
    """The name of each `alexandrov_topology`, `Topology` or `serialize` call
    made, in order."""
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("alexandrov_topology", "Topology"):
        monkeypatch.setattr(topology, name, counted(name, getattr(topology, name)))
    for module in (core, cli, topology):
        monkeypatch.setattr(module, "serialize", counted("serialize", serialize))
    return calls


def test_count_only_builds_no_objects(capsys, built):
    for kind in ("topologies", "preorders"):
        counts = [run(capsys, "enumerate", "--n", str(n), "--kind", kind, "--count-only")
                  for n in (1, 2, 3, 4, 5)]
        assert counts == [(0, "1\n"), (0, "4\n"), (0, "29\n"), (0, "355\n"), (0, "6942\n")]
        for n in (0, 6):
            code = main(["enumerate", "--n", str(n), "--kind", kind, "--count-only"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: enumeration supports 1..5 points, got {n}\n"
    assert built == []


@pytest.mark.parametrize("kind", ["topologies", "preorders"])
def test_enumerate_stream_matches_object_route(kind, capsys):
    for n in (1, 2, 3, 4, 5):
        code, out = run(capsys, "enumerate", "--n", str(n), "--kind", kind)
        assert code == 0
        assert out == "".join(doc + "\n" for doc in object_route_documents(n, kind))


def test_enumerate_stream_builds_no_objects(capsys, built):
    for kind in ("topologies", "preorders"):
        code, out = run(capsys, "enumerate", "--n", "5", "--kind", kind)
        assert code == 0 and out.count("\n") == 6942
    assert built == []


MALFORMED_FAMILIES = {
    "bool entry": ([[0, True], [0, 0]], "error: matrix row must hold integers"),
    "entry 2": ([[0, 2], [0, 0]], "error: matrix for index 'i0' has entries outside {0,1}"),
    "ragged row": ([[0, 1], [0]], "error: matrix for index 'i0' is not 2x2"),
    "missing row": ([[0, 1]], "error: matrix for index 'i0' is not 2x2"),
    "extra row": ([[0, 1], [0, 0], [0, 0]], "error: matrix for index 'i0' is not 2x2"),
    "non-list matrix": (5, "error: matrix must be a list of rows"),
}


@pytest.mark.parametrize("case", MALFORMED_FAMILIES.values(), ids=MALFORMED_FAMILIES.keys())
def test_malformed_family_is_input_error(case, files, capsys):
    matrix, first_line = case
    doc = files("bad.json", json.dumps({"kind": "qmetric", "n": 2, "indices": ["i0"],
                                        "matrices": [matrix]}))
    for argv in (["check", doc, "--kind", "qmetric"], ["topology", doc]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines()[0] == first_line


def _stdout_sha256(capsys, *argv):
    code = main(list(argv))
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_preorder_stream_bytes(capsys):
    """No benchmark workload streams preorder documents, so their bytes are
    pinned here: 355 one-index families on four points."""
    assert _stdout_sha256(capsys, "enumerate", "--n", "4", "--kind", "preorders") == \
        (0, "9c31fbbb89891584f1135a9b65122196fd1d69cf358af4488ae49baf6058042d")


def test_violation_report_bytes(files, capsys):
    """Eleven violations over three indices, listed in document order of the
    indices (c, a, b), then by x, y and z."""
    doc = files("tri.json", json.dumps({
        "kind": "qmetric", "n": 4, "indices": ["c", "a", "b"],
        "matrices": [[[0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0]],
                     [[0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 1], [0, 0, 0, 1]],
                     [[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]]]}))
    assert _stdout_sha256(capsys, "check", doc, "--kind", "qmetric") == \
        (1, "34d48fb9d138593133a055c39874ffd1c6ff986303287cc382164af47f0d84ee")


def test_topology_violation_report_bytes(files, capsys):
    """No full set, then the union- and intersection-escapes of every pair of
    opens in ascending mask order."""
    doc = files("escapes.json", json.dumps({
        "kind": "topology", "n": 4,
        "opens": [[], [0], [1], [2, 3], [0, 2], [1, 2, 3]]}))
    assert _stdout_sha256(capsys, "check", doc, "--kind", "topology") == \
        (1, "8e4215754306767daa21111390897392858384ac7ea120b01cdefca1c4056338")


def test_non_closed_document_is_refused_at_its_first_violation(files, capsys, monkeypatch):
    """Every subset of ten points but {0} is not closed: {0,1} and {0,2}
    meet in {0}.  `canonical` builds that one violation and prints it as an
    input error; `check` still builds and reports all 9,330, the pairs of
    sets that meet in exactly {0}."""
    n = 10
    doc = files("t.json", json.dumps({"kind": "topology", "n": n, "opens": [
        members(u) for u in range(1 << n) if u != 1]}))
    built, violation = [], topology.TopologyViolation
    monkeypatch.setattr(topology, "TopologyViolation",
                        lambda *args: built.append(violation(*args)) or built[-1])
    assert main(["canonical", doc]) == 2
    assert capsys.readouterr() == ("", "error: not a topology: intersection-escape: {0,1}, {0,2}\n")
    assert len(built) == 1
    built.clear()
    code, out = run(capsys, "check", doc, "--kind", "topology")
    report = json.loads(out)
    assert (code, report["reason"]) == (1, "intersection-escape: {0,1}, {0,2}")
    assert len(built) == len(report["detail"]["violations"]) == (3**9 - 2**10 + 1) // 2


def test_check_topology_command_matches_the_pair_scan(files, capsys):
    """On every family of subsets of at most three points, `check --kind
    topology` prints the report of the pair scan's violations, and exits 1
    exactly when there are any."""
    for n in (1, 2, 3):
        for fam in range(1 << (1 << n)):
            masks = members(fam)
            violations = list(topology._pair_scan(PointSpace(n), masks))
            detail = {"violations": [v.to_json() for v in violations]}
            expected = ({"op": "check", "verdict": "fail", "reason": str(violations[0]),
                         "detail": detail} if violations else
                        {"op": "check", "verdict": "pass"})
            doc = files("t.json", json.dumps({"kind": "topology", "n": n,
                                              "opens": list(map(members, masks))}))
            code, out = run(capsys, "check", doc, "--kind", "topology")
            assert (code, out) == (int(bool(violations)),
                                   json.dumps(expected, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_separation_on_topology_matches_canonical_route(n, monkeypatch, capsys):
    """A topology document and its canonical family document give the bytes
    and exit code that the canonical family's separation rows give."""
    for t in topology.enumerate_topologies(n):
        family = serialize(representation.canonical_family(t))
        for method in ("metric", "literal_r3", "literal_r4", "literal_r5"):
            expected = canonical_route_separation(t, method)
            for doc in (serialize(t), family):
                monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
                code = main(["separation", "-", "--method", method])
                assert (code, capsys.readouterr().out) == expected, (doc, method)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_separation_on_families_matches_pair_scans(n, monkeypatch, capsys):
    """Every family of one or two preorder indices on n points, through
    every method, gives the bytes and exit code of the report built pair by
    pair from its distance matrices and the opens it generates.  Unlike a
    canonical family, such a family can satisfy literal_r4/literal_r5, and
    on three points literal_r5 holds at a pair that is not T2."""
    seen = set()
    for q in small_index_families(n):
        doc = serialize(q)
        for method in ("direct", "metric", "literal_r3", "literal_r4", "literal_r5"):
            expected = family_route_separation(q, method)
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            code = main(["separation", "-", "--method", method])
            assert (code, capsys.readouterr().out) == expected, (doc, method)
            detail = json.loads(expected[1])["detail"]
            seen.add((method, detail.get("condition")))
            seen.update((method, "pair", p[method]) for p in detail.get("disagreeing_pairs", ()))
    if n > 1:
        assert {("literal_r4", True), ("literal_r5", True)} <= seen
    assert (("literal_r5", "pair", True) in seen) == (n == 3)


def test_discrepancy_command(capsys):
    code, out = run(capsys, "discrepancy", "--left", "literal_r5",
                    "--right", "direct-t2", "--n", "3", "--indices", "1")
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "witness"
    witness = parse_document(json.dumps(report["witness"]))
    assert check_quasifamily(witness) == []
    # bit 0*3 + 1 is the pair (0, 1)
    assert predicate_pairs("literal_r5", *separation_pair(3, witness.rows)) >> 1 & 1
    assert not is_t2(to_topology(witness))

    code, out = run(capsys, "discrepancy", "--left", "t0_unordered",
                    "--right", "direct-t0", "--n", "3", "--indices", "2")
    assert code == 0 and json.loads(out)["verdict"] == "none"

    assert run(capsys, "discrepancy", "--left", "bogus", "--right", "t2",
               "--n", "2", "--indices", "1")[0] == 2


@pytest.mark.parametrize("name", ["direct-literal_r5", "direct-t0_unordered", "direct-t3",
                                  "direct-direct-t1", "direct-"])
def test_discrepancy_strips_direct_only_from_an_axiom(name, capsys):
    """`direct-` names a direct axiom; on any other name it is not stripped,
    so the name is unknown."""
    for left, right in ((name, "t1"), ("t1", name)):
        code = main(["discrepancy", "--left", left, "--right", right, "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: unknown predicate {name!r}\n"
    code, out = run(capsys, "discrepancy", "--left", "direct-t1", "--right", "t1_amended",
                    "--n", "2")
    assert code == 0 and json.loads(out)["detail"]["left"] == "t1"


def test_converge_accepts_nets(files, capsys):
    sier = files("sier.json", SIER)
    net = files("net.json", '{"kind":"net","elements":["a","b"],'
                            '"order":[[1,1],[0,1]],"assignment":[0,1],"n":2}')
    assert run(capsys, "converge", net, sier, "--point", "1", "--mode", "right")[0] == 0
    assert run(capsys, "converge", net, sier, "--point", "1", "--mode", "cauchy")[0] == 0
    # nets have no statistical semantics
    assert run(capsys, "converge", net, sier, "--point", "1",
               "--mode", "statistical")[0] == 2


@pytest.mark.parametrize("mode", ["right", "left", "cauchy"])
def test_empty_net_is_input_error(mode, files, capsys):
    net = files("net.json", '{"kind":"net","elements":[],"order":[],"assignment":[],"n":2}')
    code = main(["converge", net, files("sier.json", SIER), "--point", "0", "--mode", mode])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a directed set needs at least one element\n"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(SIER))
    code, out = run(capsys, "check", "-", "--kind", "topology")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_missing_file_is_input_error(capsys):
    assert run(capsys, "check", "/nonexistent/x.json", "--kind", "topology")[0] == 2


@pytest.mark.parametrize("argv", [
    ["check", "{dir}", "--kind", "topology"],
    ["canonical", "{dir}"],
    ["topology", "{dir}"],
    ["roundtrip", "{dir}"],
    ["separation", "{dir}", "--method", "metric"],
    ["converge", "{dir}", "{sier}", "--point", "0", "--mode", "right"],
    ["converge", "{seq}", "{dir}", "--point", "0", "--mode", "statistical"],
], ids=lambda argv: argv[0] + ("-space" if argv[1] == "{seq}" else ""))
def test_directory_path_is_input_error(argv, tmp_path, files, capsys):
    """A path that cannot be read as a file is an input error, whichever
    command reads it."""
    paths = {"dir": str(tmp_path), "sier": files("sier.json", SIER),
             "seq": files("squares.json", SQUARES_SEQ)}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def _check_failed(reason: str, violations: list) -> tuple[int, str, str]:
    report = {"op": "check", "verdict": "fail", "reason": reason,
              "detail": {"violations": violations}}
    return 1, json.dumps(report, separators=(",", ":")) + "\n", ""


def _check_refused(message: str) -> tuple[int, str, str]:
    return 2, "", f"error: {message}\n"


CHECK_PASSED = (0, '{"op":"check","verdict":"pass"}\n', "")
NOT_TOPOLOGY, NOT_FAMILY, NOT_SEMIGROUP, NO_POSITIVES = map(_check_refused, [
    "document is not a topology", "document is not a quasimetric family",
    "document is not a semigroup", "document carries no set of positives"])
SEMIGROUP = '{"kind":"semigroup","elements":["0","1"],"add":[[0,1],[1,1]],"zero":0,"infinity":1'
# Addition mod 2 has no absorbing infinity, and fails more axioms after it.
XOR = '{"kind":"semigroup","elements":["0","1"],"add":[[0,1],[1,0]],"zero":0,"infinity":1'
XOR_FAILED = _check_failed("absorbing fails at (1,)", [
    {"axiom": "absorbing", "witness": [1]}, {"axiom": "antisymmetry", "witness": [0, 1]},
    {"axiom": "antisymmetry", "witness": [1, 0]},
    {"axiom": "unique-halving", "witness": [0, 0, 1]},
    {"axiom": "unique-halving", "witness": [1]},
    *({"axiom": "meet-distributivity", "witness": w}
      for w in ([0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]))])

# A document, then (exit code, stdout, stderr) of `check --kind` topology,
# qmetric, semigroup and positives on it.  A set of positives promises its
# semigroup's axioms first, then its own; `--kind semigroup` reads only the
# semigroup of a document that has positives.
CHECK_KINDS = {
    "topology": (SIER, CHECK_PASSED, NOT_FAMILY, NOT_SEMIGROUP, NO_POSITIVES),
    "non-closed topology": (
        '{"kind":"topology","n":2,"opens":[[],[0],[1]]}',
        _check_failed("no-full-set", [{"kind": "no-full-set", "witness": []},
                                      {"kind": "union-escape", "witness": [[0], [1]]}]),
        *[_check_refused("not a topology: no-full-set")] * 3),
    "family": (EDGE_FAMILY, NOT_TOPOLOGY, CHECK_PASSED, NOT_SEMIGROUP, NO_POSITIVES),
    "non-transitive family": (
        BAD_QMETRIC, NOT_TOPOLOGY,
        _check_failed("triangle at index 'i0', points (0, 1, 2)",
                      [{"kind": "triangle", "index": "i0", "points": [0, 1, 2]}]),
        NOT_SEMIGROUP, NO_POSITIVES),
    "non-reflexive family": (
        '{"kind":"qmetric","n":2,"indices":["i0"],"matrices":[[[0,0],[0,1]]]}', NOT_TOPOLOGY,
        _check_failed("nonzero-self-distance at index 'i0', points (1,)",
                      [{"kind": "nonzero-self-distance", "index": "i0", "points": [1]},
                       {"kind": "triangle", "index": "i0", "points": [1, 0, 1]}]),
        NOT_SEMIGROUP, NO_POSITIVES),
    "semigroup": (SEMIGROUP + "}", NOT_TOPOLOGY, NOT_FAMILY, CHECK_PASSED, NO_POSITIVES),
    "broken semigroup": (XOR + "}", NOT_TOPOLOGY, NOT_FAMILY, XOR_FAILED, NO_POSITIVES),
    "positives": (SEMIGROUP + ',"positives":[0,1]}', NOT_TOPOLOGY, NOT_FAMILY,
                  CHECK_PASSED, CHECK_PASSED),
    "positives failing their axioms": (
        SEMIGROUP + ',"positives":[1]}', NOT_TOPOLOGY, NOT_FAMILY, CHECK_PASSED,
        _check_failed("order-separation fails at (1, 0)",
                      [{"axiom": "order-separation", "witness": [1, 0]}])),
    "positives of a broken semigroup": (XOR + ',"positives":[0,1]}', NOT_TOPOLOGY,
                                        NOT_FAMILY, XOR_FAILED, XOR_FAILED),
    "sequence": (SQUARES_SEQ, NOT_TOPOLOGY, NOT_FAMILY, NOT_SEMIGROUP, NO_POSITIVES),
    "net": ('{"kind":"net","elements":["a","b"],"order":[[1,1],[0,1]],'
            '"assignment":[0,1],"n":2}', NOT_TOPOLOGY, NOT_FAMILY, NOT_SEMIGROUP, NO_POSITIVES),
    "map": ('{"kind":"map","from":2,"to":2,"values":[0,1]}',
            NOT_TOPOLOGY, NOT_FAMILY, NOT_SEMIGROUP, NO_POSITIVES),
}


@pytest.mark.parametrize("case", CHECK_KINDS.values(), ids=CHECK_KINDS.keys())
def test_check_reports_the_axioms_each_kind_promises(case, files, capsys):
    doc = files("doc.json", case[0])
    for kind, expected in zip(["topology", "qmetric", "semigroup", "positives"], case[1:]):
        code = main(["check", doc, "--kind", kind])
        assert (code, *capsys.readouterr()) == expected, kind


def _child_env() -> dict:
    """A child runs qmtop from the source tree and writes no `__pycache__`
    into it."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return {"PYTHONPATH": src, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qmtop", "enumerate", "--n", "2",
         "--kind", "topologies", "--count-only"],
        env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "4"


def test_start_up_loads_no_fraction_module():
    """`fractions` loads `decimal` and `numbers`; only the statistical
    verdict builds a `Fraction`, so importing the CLI loads neither."""
    probe = "import sys, qmtop.cli; print(sorted({'fractions', 'decimal'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


# Refuses every import from outside the standard library and qmtop, then
# runs each argv list of sys.argv[1] through `main`, then the README's
# discrepancy search, and reports the modules loaded by then.
_STDLIB_ONLY_PROBE = """
import contextlib, io, json, sys

class StandardLibraryOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "qmtop" and top not in sys.stdlib_module_names:
            raise ImportError(f"{name} is not in the standard library")
        return None

before = {m.partition(".")[0] for m in sys.modules}
sys.meta_path.insert(0, StandardLibraryOnly())
from qmtop.cli import main
report = {"calls": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report["calls"].append([argv[0], code])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["discrepancy", "--left", "literal_r5", "--right", "direct-t2",
                 "--n", "3", "--indices", "1"])
report["discrepancy"] = [code, json.loads(out.getvalue())]
report["loaded"] = sorted({m.partition(".")[0] for m in sys.modules}
                          - before - set(sys.stdlib_module_names))
report["start_up"] = sorted({"dataclasses", "inspect"} & sys.modules.keys())
print(json.dumps(report))
"""


def test_no_command_imports_a_third_party_package(files):
    sier, seq = files("sier.json", SIER), files("squares.json", SQUARES_SEQ)
    sg = files("sg.json", '{"kind":"semigroup","elements":["0","1"],'
                          '"add":[[0,1],[1,1]],"zero":0,"infinity":1,"positives":[0,1]}')
    calls = [["check", sier, "--kind", "topology"], ["check", sg, "--kind", "positives"],
             ["canonical", sier], ["topology", files("edge.json", EDGE_FAMILY)],
             ["roundtrip", "--n", "3"], ["separation", sier, "--method", "metric"],
             ["enumerate", "--n", "3", "--kind", "topologies"]]
    calls += [["converge", seq, sier, "--point", "1", "--mode", mode]
              for mode in ("right", "left", "cauchy", "topological", "product",
                           "statistical")]
    proc = subprocess.run([sys.executable, "-c", _STDLIB_ONLY_PROBE, json.dumps(calls)],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["calls"]) == 13
    assert [call for call in report["calls"] if call[1] not in (0, 1)] == []
    code, verdict = report["discrepancy"]
    assert code == 1 and verdict["verdict"] == "witness"
    assert verdict["witness"]["matrices"] == [[[0, 1, 0], [1, 0, 0], [1, 1, 0]]]
    assert report["loaded"] == ["qmtop"]
    # Neither is needed by any command, and importing them would add to
    # every call's start-up time.
    assert report["start_up"] == []


def test_emitted_witness_reverifies(files, capsys):
    code, out = run(capsys, "canonical", files("sier.json", serialize(sierpinski())))
    assert code == 0
    fam = files("fam.json", out.strip())
    assert run(capsys, "check", fam, "--kind", "qmetric")[0] == 0
