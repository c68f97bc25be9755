"""Fuzzing of the document parser and the command line.

Most documents are well formed for their kind on at most six points (closed
topologies, preorder distance matrices, nested index sets), and one in five
of those has a field replaced by random JSON or removed; the rest are random
JSON, deeply nested raw JSON or random text.  The space of a `converge` call
is always well formed, so that its sequence reaches the verdict code.  Every outcome must keep the
exit-code contract: 0, 1 or 2, never a traceback, and nothing on stdout for
an input error.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from qmtop.cli import main
from qmtop.core import MAX_SET_DEPTH, DocumentError, PointSpace, parse_document

from helpers import subbase_closure

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)

# Small values exercise the shapes; the large ones the numeric edges.
ints = st.integers(-2, 7) | st.sampled_from([10**6, 10**12, 2**63, 10**20])
scalars = st.none() | st.booleans() | ints | st.floats(allow_nan=False) | st.text(max_size=4)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=20)
junk = st.one_of(json_values.map(json.dumps),
                 st.integers(1, 5000).map(lambda d: "[" * d + "]" * d),
                 st.text(max_size=20))


def _index_sets(depth):
    leaf = st.one_of(
        st.fixed_dictionaries({"type": st.just("finite"), "members": st.lists(ints, max_size=4)}),
        st.fixed_dictionaries({"type": st.just("residues"), "mod": st.integers(3, 12) | ints,
                               "residues": st.lists(st.integers(0, 2), max_size=3)}),
        st.sampled_from([{"type": "squares"}, {"type": "powers_of_two"}]))
    if depth == 0:
        return leaf
    inner = _index_sets(depth - 1)
    return leaf | st.fixed_dictionaries({"type": st.just("complement"), "of": inner}) | \
        st.fixed_dictionaries({"type": st.just("union"), "of": st.lists(inner, max_size=3)})


def _deep_set(depth: int) -> dict:
    ds = {"type": "residues", "mod": 3, "residues": [1]}
    for level in range(depth - 1):
        ds = {"type": "complement", "of": ds} if level % 2 else \
            {"type": "union", "of": [ds, {"type": "squares"}]}
    return ds


index_sets = _index_sets(3) | st.integers(MAX_SET_DEPTH - 3, MAX_SET_DEPTH + 3).map(_deep_set)


@st.composite
def preorder_matrices(draw, n):
    """The distance matrix of the transitive closure of a few random edges."""
    below = [[x == y for y in range(n)] for x in range(n)]
    for x, y in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        below[x][y] = True
    for z in range(n):
        for x in range(n):
            for y in range(n):
                below[x][y] = below[x][y] or (below[x][z] and below[z][y])
    return [[0 if below[x][y] else 1 for y in range(n)] for x in range(n)]


@st.composite
def shaped_documents(draw, kinds, n, corrupt=True):
    kind = draw(st.sampled_from(kinds))
    doc = {"kind": kind, "n": n}
    point = st.integers(0, n - 1)
    if kind == "topology":
        subbase = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
        doc["opens"] = [[p for p in range(n) if m >> p & 1]
                        for m in sorted(subbase_closure(PointSpace(n), subbase))]
    elif kind == "qmetric":
        count = draw(st.integers(1, 3))
        doc["indices"] = [f"i{k}" for k in range(count)]
        doc["matrices"] = [draw(preorder_matrices(n)) for _ in range(count)]
    elif kind == "sequence":
        doc["default"] = draw(point)
        doc["rules"] = draw(st.lists(st.fixed_dictionaries({"set": index_sets, "point": point}),
                                     max_size=3))
    elif kind == "net":
        size = draw(st.integers(1, 3))
        doc["elements"] = [f"e{k}" for k in range(size)]
        doc["order"] = [[int(a <= b) for b in range(size)] for a in range(size)]
        doc["assignment"] = draw(st.lists(point, min_size=size, max_size=size))
    else:  # the max semigroup on a chain
        size = draw(st.integers(2, 4))
        doc["elements"] = [str(k) for k in range(size)]
        doc["add"] = [[max(a, b) for b in range(size)] for a in range(size)]
        doc["zero"], doc["infinity"] = 0, size - 1
        if draw(st.booleans()):
            doc["positives"] = draw(st.lists(st.integers(0, size - 1), max_size=size))
    if corrupt and draw(st.integers(0, 99)) < 20:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(scalars | json_values)
    return json.dumps(doc)


@st.composite
def documents(draw, kinds, n):
    """Four in five shaped like one of `kinds`, the rest junk."""
    return draw(junk if draw(st.integers(0, 99)) < 20 else shaped_documents(kinds, n))


KINDS = ("topology", "qmetric", "sequence", "net", "semigroup")
SPACES = ("topology", "qmetric")
# (argv with placeholders A and B, kinds for A, kinds for B)
COMMANDS = (
    [(["check", "A", "--kind", kind], (doc_kind,), ())
     for kind, doc_kind in (("topology", "topology"), ("qmetric", "qmetric"),
                            ("semigroup", "semigroup"), ("positives", "semigroup"))]
    + [(["canonical", "A"], ("topology",), ()), (["topology", "A"], ("qmetric",), ()),
       (["roundtrip", "A"], ("topology",), ())]
    + [(["separation", "A", "--method", method], SPACES, ())
       for method in ("direct", "metric", "literal_r3", "literal_r4", "literal_r5")]
    + [(["converge", "A", "B", "--mode", mode], ("sequence", "net"), SPACES)
       for mode in ("right", "left", "cauchy", "topological", "product", "statistical")])


@FUZZ
@given(st.integers(1, 6).flatmap(lambda n: documents(KINDS, n)))
def test_parse_document_raises_only_document_errors(text):
    for validate in (True, False):
        try:
            parse_document(text, validate=validate)
        except DocumentError:
            pass


@st.composite
def cli_calls(draw):
    argv, kinds_a, kinds_b = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(1, 6))
    texts = {"A": draw(documents(kinds_a, n))}
    if kinds_b:
        # The space is well formed (the commands above fuzz it alone), but
        # one in five has another point count than the sequence.
        n_b = n if draw(st.integers(0, 99)) < 80 else n % 6 + 1
        texts["B"] = draw(shaped_documents(kinds_b, n_b, corrupt=False))
    if argv[0] == "converge":
        argv = argv + ["--point", str(draw(st.integers(-1, n)))]
    return argv, texts


@FUZZ
@given(cli_calls())
def test_cli_keeps_the_exit_contract(call):
    argv, texts = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2), (argv, texts, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    else:
        assert out.getvalue()
