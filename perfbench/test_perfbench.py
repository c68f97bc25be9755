"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads
from workloads import Call, dump, verify

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Attributes that copy a wrapped function by `from ... import`.
IMPORT_SITES = (("qmetric", "generate_from_subbase"), ("topology", "serialize"),
                ("cli", "parse_document"), ("cli", "serialize"),
                ("continuity", "check_topology"), ("representation", "enumerate_preorders"))


# ---------------------------------------------------------------------------
# Predicted verdicts against the brute-force models


def _space(doc: dict):
    """Opens and the family of a topology or qmetric document, by brute force."""
    n = doc["n"]
    if doc["kind"] == "topology":
        opens = sorted(oracle.mask_of(o) for o in doc["opens"])
        return opens, oracle.canonical_matrices(opens, n)
    return oracle.family_opens(doc["matrices"]), doc["matrices"]


def _report(verdict: str, **detail) -> str:
    return dump({"verdict": verdict, "detail": detail})


def brute(call: Call) -> tuple[int, str | None, str]:
    """Exit code, verdict and a stdout the brute-force models stand behind."""
    cmd, doc = call.argv[0], call.model["doc"]
    n = doc["n"] if "n" in doc else None
    if cmd == "check":
        kind = call.argv[3]
        if kind == "topology":
            ok = oracle.is_topology([oracle.mask_of(o) for o in doc["opens"]], n)
        elif kind == "qmetric":
            ok = oracle.is_quasifamily(doc["matrices"])
        elif kind == "semigroup":
            ok = oracle.semigroup_ok(doc["add"], doc["zero"], doc["infinity"])
        else:
            ok = oracle.positives_ok(doc["add"], doc["zero"], doc["infinity"], doc["positives"])
        return (0, "pass", _report("pass")) if ok else (1, "fail", _report("fail"))
    valid = (oracle.is_topology([oracle.mask_of(o) for o in doc["opens"]], n)
             if doc["kind"] == "topology" else oracle.is_quasifamily(doc["matrices"]))
    if not valid:
        return 2, None, ""
    opens, matrices = _space(doc)
    if cmd == "canonical":
        labels = [dump(oracle.members(u, n)) for u in opens]
        assert oracle.family_opens(matrices) == opens  # the representation theorem
        pairs = sorted(zip(labels, matrices))
        return 0, None, dump({"kind": "qmetric", "n": n, "indices": [p[0] for p in pairs],
                              "matrices": [p[1] for p in pairs]})
    if cmd == "topology":
        return 0, None, dump({"kind": "topology", "n": n,
                              "opens": [oracle.members(u, n) for u in opens]})
    if cmd == "roundtrip":
        ok = oracle.family_opens(matrices) == opens
        return (0, "pass", _report("pass", missing=[], extra=[])) if ok else (1, "fail", "")
    direct = oracle.space_separation(opens, n)
    if cmd == "separation":
        method = call.argv[3]
        if method == "direct":
            return 0, "pass", _report("pass", method=method, **direct)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if method == "metric":
            metric = {"t0": all(any(m[x][y] or m[y][x] for m in matrices) for x, y in pairs),
                      "t1": all(any(m[x][y] for m in matrices) for x, y in pairs),
                      "t2": direct["t2"]}
            verdict = "pass" if metric["t0"] == direct["t0"] and metric["t1"] == direct["t1"] \
                else "fail"
            return (0 if verdict == "pass" else 1), verdict, _report(verdict, method=method, **metric)
        axiom = {"literal_r3": "t0", "literal_r4": "t1", "literal_r5": "t2"}[method]
        disagree = []
        for x, y in pairs:
            lit = oracle.literal_pair(matrices, method, x, y)
            sep = oracle.separated(opens, x, y, axiom)
            if lit != sep:
                disagree.append({"pair": [x, y], method: lit, axiom: sep})
        verdict = "fail" if disagree else "pass"
        return (1 if disagree else 0), verdict, _report(
            verdict, axiom=axiom, direct=direct[axiom], disagreeing_pairs=disagree)
    x, mode, seq = call.model["point"], call.argv[-1], call.model["seq"]
    if not 0 <= x < n:
        return 2, None, ""
    verdict = oracle.converge_verdict(seq, matrices, opens, x, mode)
    labels = workloads.index_labels(doc)
    per_index = []
    for label, m in zip(labels, matrices):
        d = oracle.deviation_density(seq, m, x)
        per_index.append({"index": label, "density": {
            "kind": "exact", "numerator": d.numerator, "denominator": d.denominator}})
    return (0 if verdict == "pass" else 1), verdict, _report(verdict, per_index=per_index)


@pytest.mark.parametrize("seed", range(6))
def test_docs_predictions_match_brute_force(seed):
    calls = workloads.docs(seed, max_n=3)
    assert len(calls) >= 90
    for call in calls:
        code, verdict, stdout = brute(call)
        assert (call.exit, call.verdict if call.exit != 2 else None) == (code, verdict), call.label
        assert verify(call, code, stdout) is None, call.label


def test_docs_cover_every_subcommand_and_failures():
    calls = workloads.docs(0)
    kinds = {(c.argv[0], c.argv[-1]) for c in calls}
    for kind in ("topology", "qmetric", "semigroup", "positives"):
        assert ("check", kind) in kinds
    for mode in workloads.CONVERGE_MODES:
        assert ("converge", mode) in kinds
    for method in workloads.SEPARATION_METHODS:
        assert ("separation", method) in kinds
    assert {c.argv[0] for c in calls} >= {"canonical", "topology", "roundtrip"}
    failing = sum(c.exit != 0 for c in calls)
    assert len(calls) / 4 <= failing <= len(calls) / 2


def test_same_seed_same_inputs():
    for make in workloads.WORKLOADS.values():
        a, b = make(7), make(7)
        assert [(c.argv, c.files) for c in a] == [(c.argv, c.files) for c in b]


def test_verify_rejects_wrong_answers():
    call = workloads.search(0)[0]
    enum = next(c for c in workloads.search(0) if c.argv[:4] == ["enumerate", "--n", "5", "--kind"]
                and "--count-only" not in c.argv)
    assert verify(enum, 0, "") is not None
    assert verify(call, 2, "") is not None
    witness = next(c for c in workloads.search(0) if "literal_r5" in c.argv)
    wrong = dict(oracle.R5_T2_WITNESS, matrices=[[[0, 1, 1], [1, 0, 0], [1, 1, 0]]])
    assert verify(witness, 1, dump({"verdict": "witness", "witness": wrong})) is not None
    assert verify(witness, 1, dump({"verdict": "witness", "witness": oracle.R5_T2_WITNESS})) is None


def test_all_topologies_check_on_two_points():
    good = [{"kind": "topology", "n": 2, "opens": o} for o in
            ([[], [0, 1]], [[], [0], [0, 1]], [[], [0], [1], [0, 1]], [[], [1], [0, 1]])]
    lines = sorted(dump(d) for d in good)
    check = workloads._all_topologies(2)
    assert check("\n".join(lines) + "\n") is None
    assert check("\n".join(lines[:-1]) + "\n") is not None
    bad = dump({"kind": "topology", "n": 2, "opens": [[], [0], [1]]})
    assert check("\n".join(sorted(lines[:-1] + [bad])) + "\n") is not None


# ---------------------------------------------------------------------------
# Tracing


def test_every_import_site_is_wrapped():
    sys.path.insert(0, str(ROOT / "src"))
    import qmtop.cli  # noqa: F401

    modules = {k: v for k, v in sys.modules.items() if k == "qmtop" or k.startswith("qmtop.")}
    originals = {getattr(modules[f"qmtop.{m}"], a) for m, a in spans.WRAPPED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in modules.values():
            for key, value in vars(mod).items():
                assert not any(value is f for f in originals), f"{mod.__name__}.{key}"
        for module, attr in spans.WRAPPED:
            assert hasattr(getattr(modules[f"qmtop.{module}"], attr), "__perfbench_original__")
        for module, attr in IMPORT_SITES:
            assert hasattr(getattr(modules[f"qmtop.{module}"], attr), "__perfbench_original__")
    finally:
        tracer.uninstall()
    for mod in modules.values():
        for key, value in vars(mod).items():
            assert not hasattr(value, "__perfbench_original__"), f"{mod.__name__}.{key}"


def test_traced_call_records_nested_spans(tmp_path, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    from qmtop import cli

    doc = tmp_path / "q.json"
    doc.write_text(dump(workloads.qmetric_doc([[[0, 1], [0, 0]]])))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["topology", str(doc)]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["opens"] == [[], [0], [0, 1]]
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    closure = tracer.spans[names.index("topology.generate_from_subbase")]
    assert tracer.spans[closure[3]][0] == "qmetric.to_topology"
    inclusive, own = tracer.layer_times()
    assert own["cli.main"] <= inclusive["cli.main"]
    total_self = sum(own.values())
    assert total_self == pytest.approx(inclusive["cli.main"], rel=1e-9, abs=1e-9)
    metrics = tracer.metrics()
    assert metrics["topology.closure_calls"] == 1
    assert metrics["core.parse_bytes"] == len(doc.read_text())


# ---------------------------------------------------------------------------
# The benchmark contract


def test_metric_names_and_units_match_benchmark_json(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in [*declared_e2e, *declared_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

    tiny = [workloads.COLD_CALL, workloads.COLD_CALL]
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda seed: tiny)
    run.WORK.mkdir(exist_ok=True)
    tally = run.Tally()
    e2e = run.untraced("tiny", 0, 0.0, tally)
    assert tally.failed == 0
    assert {k: u for k, (_, u) in e2e.items()} == declared_e2e
    assert all(v > 0 for v, _ in e2e.values())

    layer = run.traced("docs", 0, tally)
    assert tally.failed == 0
    assert {k: u for k, (_, u) in layer.items()} == declared_layer


def test_tally_fails_changed_bytes_signals_and_timeouts():
    call = workloads.COLD_CALL
    tally = run.Tally()
    tally.record(0, call, 0, b"4\n")
    tally.record(0, call, 0, b"4\n")
    assert tally.failed == 0
    tally.record(0, call, 0, b"4 \n")
    tally.record(1, call, -9, b"")
    tally.record(2, call, 0, b"4\n", timed_out=True)
    assert (tally.attempted, tally.failed) == (5, 3)
