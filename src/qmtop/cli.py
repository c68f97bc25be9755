"""Batch command line: documents in, verdict reports out.

Exit codes follow one contract everywhere: 0 when the property holds (or no
witness exists), 1 when it fails (or the searched-for witness was found),
2 on input errors, 3 when an internal self-check fails.  Reports go to
stdout as JSON, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

# `continuity` is loaded with the CLI, where perfbench finds it to trace.
from . import continuity, qmetric, representation, topology  # noqa: F401
from .core import (
    DirectedNet,
    DocumentError,
    InvariantViolation,
    PositiveSet,
    QuasiFamily,
    SequenceSpec,
    Topology,
    ValueSemigroup,
    axiom_violations,
    members,
    parse_document,
    serialize,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def emit(op: str, verdict: str, *, witness: str | None = None, reason: str | None = None,
         detail: dict | None = None) -> None:
    """Print one verdict report: a compact JSON object on one line of stdout.
    `witness` is a document's text, embedded as its JSON value."""
    obj = {"op": op, "verdict": verdict}
    if reason is not None:
        obj["reason"] = reason
    if witness is not None:
        obj["witness"] = json.loads(witness)
    if detail:
        obj["detail"] = detail
    print(json.dumps(obj, separators=(",", ":")))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _load(path: str, kinds, message: str):
    """The document at a path, refused with `message` unless it is one of
    `kinds`."""
    value = parse_document(_read(path))
    if not isinstance(value, kinds):
        raise DocumentError(message)
    return value


def _verdict(op: str, ok: bool, reason: str | None, **report) -> int:
    """Report a pass, or a failure for the reason given, and return its exit
    code."""
    emit(op, "pass" if ok else "fail", reason=None if ok else reason, **report)
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------


# Each checked kind: the record its document must parse to, and its refusal.
_CHECKED = {
    "topology": (Topology, "document is not a topology"),
    "qmetric": (QuasiFamily, "document is not a quasimetric family"),
    "semigroup": (ValueSemigroup, "document is not a semigroup"),
    "positives": (PositiveSet, "document carries no set of positives"),
}


def cmd_check(args) -> int:
    try:
        value = parse_document(_read(args.file), validate=False)
    except InvariantViolation as e:
        # Even this parse closure-checks a topology document, and the
        # failures it raises with are the report.
        if args.kind == "topology" and e.violations:
            return _report(e.violations)
        raise
    record, refusal = _CHECKED[args.kind]
    if args.kind == "semigroup" and isinstance(value, PositiveSet):
        value = value.semigroup
    if not isinstance(value, record):
        return _fail_input(refusal)
    return _report(axiom_violations(value)[1])


def _report(violations) -> int:
    """Report a check: a failure naming the first violation, or a pass."""
    if violations:
        return _verdict("check", False, str(violations[0]),
                        detail={"violations": [v.to_json() for v in violations]})
    return _verdict("check", True, None)


def cmd_canonical(args) -> int:
    t = _load(args.file, Topology, "canonical expects a topology document")
    print(serialize(representation.canonical_family(t)))
    return EXIT_PASS


def cmd_topology(args) -> int:
    q = _load(args.file, QuasiFamily, "topology expects a qmetric document")
    print(serialize(qmetric.to_topology(q)))
    return EXIT_PASS


def cmd_roundtrip(args) -> int:
    if args.n is not None and args.file is not None:
        return _fail_input("roundtrip takes a topology file or --n, not both")
    if args.n is not None:
        checked = equal = 0
        failures = []
        for t in topology.enumerate_preorders(args.n):
            checked += 1
            if representation.roundtrip(t).equal:
                equal += 1
            else:
                failures.append(serialize(t))
        # The first failure in canonical order: the least document.
        first_failure = min(failures, default=None)
        return _verdict("roundtrip", checked == equal, None, witness=first_failure,
                        detail={"n": args.n, "checked": checked, "equal": equal,
                                "message": f"{checked} topologies, {equal} equal"})
    if args.file is None:
        return _fail_input("roundtrip needs a topology file or --n")
    t = _load(args.file, Topology, "roundtrip expects a topology document")
    report = representation.roundtrip(t)
    return _verdict("roundtrip", report.equal, None,
                    detail={"missing": list(map(members, report.missing)),
                            "extra": list(map(members, report.extra))})


def _as_family(value) -> QuasiFamily:
    if isinstance(value, QuasiFamily):
        return value
    if isinstance(value, Topology):
        return representation.canonical_family(value)
    raise DocumentError("need a topology or qmetric document")


def _as_topology(value) -> Topology:
    if isinstance(value, Topology):
        return value
    if isinstance(value, QuasiFamily):
        return qmetric.to_topology(value)
    raise DocumentError("need a topology or qmetric document")


# `separation`: literal criteria read a relation other than the axiom they
# are offered for.
_LITERAL = [name for name, (reads, ax) in qmetric.PREDICATES.items() if reads != ax]


def cmd_separation(args) -> int:
    value = parse_document(_read(args.file))
    rows = _as_topology(value).rows
    direct = {axiom: topology.separated(rows, axiom) for axiom in ("t0", "t1", "t2")}
    if args.method == "direct":
        return _verdict("separation", True, None, detail={"method": "direct", **direct})
    if args.method == "metric":
        # The metric criteria `t0_unordered`, `t1_amended` and `t2` read the
        # very axioms they are offered for (`qmetric.PREDICATES`), so their
        # verdicts are the direct ones.
        return _verdict("separation", True, None,
                        detail={"method": "metric", **direct,
                                "direct": direct, "disagreements": []})
    reads, axiom = qmetric.PREDICATES[args.method]
    # The symmetric mask is empty for a topology document: no d_U of its
    # canonical family is 1 in both directions.
    sym = 0
    if isinstance(value, QuasiFamily) and reads == "sym":
        sym = qmetric.separation_pair(value.space.n, value.rows)[1]
    # The balls of a family meet in the minimal neighbourhoods of the topology
    # it generates, so `rows` is its meet.
    pairs = representation.disagreeing_pairs(rows, sym, args.method, axiom)
    n = len(rows)
    condition = qmetric.predicate_pairs(args.method, rows, sym).bit_count() == n * (n - 1)
    return _verdict("separation", not pairs,
                    f"literal condition disagrees with direct {axiom} at some pair",
                    detail={"method": args.method, "axiom": axiom,
                            "condition": condition,
                            "direct": direct[axiom],
                            "disagreeing_pairs": pairs})


# Each convergence mode's reason for a fail.
_CONVERGE = {
    "right": "right condition fails at some index",
    "left": "left condition fails at some index",
    "cauchy": "cauchy condition fails at some index",
    "topological": "sequence leaves the minimal neighbourhood unboundedly often",
    "product": "some coordinate never settles",
    "statistical": "some index has positive deviation density",
}


def cmd_converge(args) -> int:
    mode, x = args.mode, args.point
    seq = parse_document(_read(args.sequence))
    space = parse_document(_read(args.space))
    # The topological mode checks the carrier before it reads the space; the
    # others read the space as a family first.  Every mode takes a sequence
    # or a net but the statistical one, as a net has no natural density.
    q = None if mode == "topological" else _as_family(space)
    if mode == "statistical" and not isinstance(seq, SequenceSpec):
        raise DocumentError("statistical mode needs a sequence document")
    if not isinstance(seq, (SequenceSpec, DirectedNet)):
        raise DocumentError(f"{mode} mode needs a sequence or net document")
    detail = {"mode": mode, "point": x}
    if mode == "topological":
        ok = qmetric.converges_topologically(seq, _as_topology(space), x)
    elif mode == "right":
        ok = qmetric.right_converges(seq, q, x)
    elif mode == "left":
        ok = qmetric.left_converges(seq, q, x)
    elif mode == "cauchy":
        ok = qmetric.is_right_cauchy(seq, q)
    elif mode == "product":
        ok = qmetric.product_converges(seq, q, x)
    else:
        result = qmetric.stat_converges(seq, q, x)
        detail["per_index"] = [
            {"index": rep.index, "density": rep.density.to_json(),
             "empirical": [{"horizon": h, "count": c, "density": c / h}
                           for h, c in rep.empirical]}
            for rep in result.per_index]
        if result.verdict == "undecided":
            emit("converge", "undecided", reason="some deviation density is unknown",
                 detail=detail)
            return EXIT_FAIL if args.strict else EXIT_PASS
        ok = result.verdict == "true"
    return _verdict("converge", ok, _CONVERGE[mode], detail=detail)


def cmd_enumerate(args) -> int:
    n, kind = args.n, args.kind
    if args.count_only:
        docs = [str(topology.count_preorders(n))]
    elif kind == "topologies":
        docs = topology.topology_documents(n)
    else:
        docs = topology.preorder_documents(n)
    sys.stdout.write("\n".join(docs) + "\n")
    return EXIT_PASS


def cmd_discrepancy(args) -> int:
    def normalize(name: str) -> str:
        bare = name.removeprefix("direct-")
        return bare if qmetric.PREDICATES.get(bare) == (bare, bare) else name

    left, right = normalize(args.left), normalize(args.right)
    witness = representation.find_discrepancy(left, right, args.n, args.indices)
    if witness is None:
        emit("discrepancy", "none",
             detail={"left": left, "right": right, "n": args.n,
                     "indices": args.indices})
        return EXIT_PASS
    emit("discrepancy", "witness", witness=serialize(witness),
         reason=f"{left} and {right} disagree",
         detail={"left": left, "right": right,
                 "pairs": representation.discrepancy_pairs(witness, left, right)})
    return EXIT_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmtop",
        description="Finite topologies as families of 0-1 valued quasimetrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run an axiom checker over a document")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=["topology", "qmetric", "semigroup", "positives"])
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("canonical", help="topology document to its quasimetric family")
    p.add_argument("file")
    p.set_defaults(handler=cmd_canonical)

    p = sub.add_parser("topology", help="qmetric document to its generated topology")
    p.add_argument("file")
    p.set_defaults(handler=cmd_topology)

    p = sub.add_parser("roundtrip", help="verify topology -> family -> topology")
    p.add_argument("file", nargs="?")
    p.add_argument("--n", type=int, default=None,
                   help="check every topology on this many points")
    p.set_defaults(handler=cmd_roundtrip)

    p = sub.add_parser("separation", help="separation verdicts for a space")
    p.add_argument("file")
    p.add_argument("--method", required=True,
                   choices=["direct", "metric", *_LITERAL])
    p.set_defaults(handler=cmd_separation)

    p = sub.add_parser("converge", help="convergence verdict for a sequence or net")
    p.add_argument("sequence")
    p.add_argument("space")
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=["right", "left", "cauchy", "topological", "product",
                            "statistical"])
    p.add_argument("--strict", action="store_true",
                   help="treat an undecided statistical verdict as failure")
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser("enumerate", help="stream every topology or preorder of a size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True, choices=["topologies", "preorders"])
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("discrepancy",
                       help="search families where two predicates disagree")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--indices", type=int, default=1)
    p.set_defaults(handler=cmd_discrepancy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as e:
        # Unreadable paths, and bad documents: `DocumentError` and
        # `_tails.TailAnalysisError` are both `ValueError`s.
        return _fail_input(str(e))
    except AssertionError as e:
        # A second route disagreed with the first: a defect, not a verdict.
        message = " ".join(str(e).split())
        print(f"internal error: self-check failed: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
