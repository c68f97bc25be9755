import json
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmtop.core import (
    Complement,
    DirectedNet,
    DocumentError,
    DocumentSyntaxError,
    FiniteSet,
    MAX_POINTS,
    InvariantViolation,
    PointSpace,
    PositiveSet,
    PowersOfTwo,
    QuasiFamily,
    ResidueClasses,
    SequenceSpec,
    Squares,
    Topology,
    UnionSet,
    ValueSemigroup,
    distances_text,
    parse_document,
    members,
    members_text,
    serialize,
)
from qmtop import _tails, continuity, core, qmetric, representation, topology
from qmtop.qmetric import check_quasifamily
from qmtop.topology import enumerate_preorders, enumerate_topologies

import helpers
from helpers import (
    label_sorted,
    matrix_family,
    opens_of,
    preorder_family,
    sierpinski,
    value_at,
)


SIER_DOC = '{"kind":"topology","n":2,"opens":[[],[1],[0,1]]}'


def test_parse_topology_sierpinski():
    t = parse_document(SIER_DOC)
    assert isinstance(t, Topology)
    assert t.rows == (0b11, 0b10) and opens_of(t) == (0b00, 0b10, 0b11)


def test_parse_qmetric_document():
    q = parse_document('{"kind":"qmetric","n":2,"indices":["i0"],"matrices":[[[0,1],[0,0]]]}')
    assert isinstance(q, QuasiFamily)
    assert q.rows == ((0b01, 0b11),)


def test_parse_rejects_nonzero_diagonal():
    doc = '{"kind":"qmetric","n":2,"indices":["i0"],"matrices":[[[0,0],[0,1]]]}'
    with pytest.raises(InvariantViolation):
        parse_document(doc)
    # the lenient path keeps the violation as data for the checker
    q = parse_document(doc, validate=False)
    assert ("nonzero-self-distance", (1,)) in \
        [(v.kind, v.points) for v in check_quasifamily(q)]


def test_parse_rejects_malformed():
    with pytest.raises(DocumentSyntaxError):
        parse_document('{"kind":"top')
    with pytest.raises(DocumentSyntaxError):
        parse_document('{"kind":"mystery"}')
    with pytest.raises(DocumentSyntaxError):
        parse_document('{"kind":"topology","n":2}')


def _qmetric_doc(indices, *matrices):
    return json.dumps({"kind": "qmetric", "n": 2, "indices": list(indices),
                       "matrices": list(matrices)})


OK2 = [[0, 1], [0, 0]]

# (document, exception class, message): the first fault in the order the
# parser meets them, entry types over every matrix before labels, then the
# shape and entries of each matrix in turn.
MALFORMED_FAMILIES = {
    "bool entry": (_qmetric_doc(["i0"], [[0, True], [0, 0]]),
                   DocumentSyntaxError, "matrix row must hold integers"),
    "float entry": (_qmetric_doc(["i0"], [[0, 1.0], [0, 0]]),
                    DocumentSyntaxError, "matrix row must hold integers"),
    "entry 2": (_qmetric_doc(["i0"], [[0, 2], [0, 0]]),
                InvariantViolation, "matrix for index 'i0' has entries outside {0,1}"),
    "ragged row": (_qmetric_doc(["i0"], [[0, 1], [0]]),
                   InvariantViolation, "matrix for index 'i0' is not 2x2"),
    "missing row": (_qmetric_doc(["i0"], [[0, 1]]),
                    InvariantViolation, "matrix for index 'i0' is not 2x2"),
    "extra row": (_qmetric_doc(["i0"], [[0, 1], [0, 0], [0, 0]]),
                  InvariantViolation, "matrix for index 'i0' is not 2x2"),
    "non-list matrix": (_qmetric_doc(["i0"], 5),
                        DocumentSyntaxError, "matrix must be a list of rows"),
    "non-list row": (_qmetric_doc(["i0"], [[0, 1], 5]),
                     DocumentSyntaxError, "matrix must be a list of rows"),
    "duplicate labels": (_qmetric_doc(["a", "a"], OK2, OK2),
                         InvariantViolation, "index labels must be distinct"),
    "duplicate labels, then a 2": (_qmetric_doc(["a", "a"], [[0, 2], [0, 0]], OK2),
                                   InvariantViolation, "index labels must be distinct"),
    "duplicate labels, then a bool": (_qmetric_doc(["a", "a"], OK2, [[0, False], [0, 0]]),
                                      DocumentSyntaxError, "matrix row must hold integers"),
    "a 2, then a bool": (_qmetric_doc(["a", "b"], [[0, 2], [0, 0]], [[0, 0], [True, 0]]),
                         DocumentSyntaxError, "matrix row must hold integers"),
    "a 2, then a ragged row": (_qmetric_doc(["a", "b"], [[0, 2], [0, 0]], [[0, 0], [0]]),
                               InvariantViolation,
                               "matrix for index 'a' has entries outside {0,1}"),
    "a ragged row, then a 2": (_qmetric_doc(["a", "b"], [[0, 1], [0]], [[0, 0], [0, 2]]),
                               InvariantViolation, "matrix for index 'a' is not 2x2"),
}


@pytest.mark.parametrize("case", MALFORMED_FAMILIES.values(), ids=MALFORMED_FAMILIES.keys())
def test_family_parse_faults(case):
    doc, error, message = case
    for validate in (True, False):
        with pytest.raises(DocumentError) as info:
            parse_document(doc, validate=validate)
        assert type(info.value) is error and str(info.value) == message


def _topology_doc(*opens, n=2):
    return json.dumps({"kind": "topology", "n": n, "opens": list(opens)})


# (document, exception class, message): the first bad open wins, and inside
# one open every point's type is checked before any point's range.
MALFORMED_TOPOLOGIES = {
    "non-list open": (_topology_doc([], 5, [0, 1]),
                      DocumentSyntaxError, "open set must be a list"),
    "bool point": (_topology_doc([], [True], [0, 1]),
                   DocumentSyntaxError, "open set must hold integers"),
    "float point": (_topology_doc([], [1.0], [0, 1]),
                    DocumentSyntaxError, "open set must hold integers"),
    "negative point": (_topology_doc([], [-1], [0, 1]),
                       InvariantViolation, "point -1 outside space of 2 points"),
    "point out of range": (_topology_doc([], [0, 2], [0, 1]),
                           InvariantViolation, "point 2 outside space of 2 points"),
    "first point out of range wins": (_topology_doc([3, 2]),
                                      InvariantViolation, "point 3 outside space of 2 points"),
    "type before range in one open": (_topology_doc([2, True]),
                                      DocumentSyntaxError, "open set must hold integers"),
    "range, then a bool": (_topology_doc([], [2], [True]),
                           InvariantViolation, "point 2 outside space of 2 points"),
    "bool, then range": (_topology_doc([], [False], [2]),
                         DocumentSyntaxError, "open set must hold integers"),
    "range, then a non-list": (_topology_doc([-3], "01"),
                               InvariantViolation, "point -3 outside space of 2 points"),
    "duplicate open": (_topology_doc([], [0], [1], [0], [0, 1]),
                       InvariantViolation, "duplicate open sets"),
    "duplicate open, then range": (_topology_doc([0], [0], [5]),
                                   InvariantViolation, "point 5 outside space of 2 points"),
}


@pytest.mark.parametrize("case", MALFORMED_TOPOLOGIES.values(), ids=MALFORMED_TOPOLOGIES.keys())
def test_topology_parse_faults(case):
    doc, error, message = case
    for validate in (True, False):
        with pytest.raises(DocumentError) as info:
            parse_document(doc, validate=validate)
        assert type(info.value) is error and str(info.value) == message


def test_repeated_point_inside_an_open_is_accepted():
    t = parse_document(_topology_doc([1, 1], [0, 1, 0], []))
    assert t == sierpinski()
    with pytest.raises(InvariantViolation, match="duplicate open sets"):
        parse_document(_topology_doc([], [1], [0, 1], [1, 0]))


def test_family_stores_zero_rows():
    q = parse_document(_qmetric_doc(["b", "a"], [[0, 1], [1, 0]], [[0, 0], [1, 0]]))
    assert q.indices == ("b", "a") and q.rows == ((0b01, 0b10), (0b11, 0b10))
    assert json.loads(serialize(q))["matrices"] == [[[0, 0], [1, 0]], [[0, 1], [1, 0]]]
    for rows in ((0b01,), (0b01, 0b100), (0b01, -1)):
        with pytest.raises(InvariantViolation):
            QuasiFamily(PointSpace(2), ("i0",), (rows,))


def test_serialize_is_canonical_and_deterministic():
    t = sierpinski()
    assert serialize(t) == SIER_DOC
    assert serialize(t) == serialize(t)


def test_serialize_reorders_indices():
    q = matrix_family(2, [[0, 1], [0, 0]], [[0, 0], [1, 0]], labels=("b", "a"))
    doc = json.loads(serialize(q))
    assert doc["indices"] == ["a", "b"]
    assert doc["matrices"] == [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]
    assert parse_document(serialize(q)) == label_sorted(q)


def test_roundtrip_enumerated_topologies():
    for n in (1, 2, 3):
        for t in enumerate_topologies(n):
            assert parse_document(serialize(t)) == t


def test_roundtrip_sequence_all_descriptor_kinds():
    space = PointSpace(3)
    seq = SequenceSpec(space, 2, (
        (FiniteSet((3, 1, 3)), 0),
        (ResidueClasses(4, (2, 0)), 1),
        (Squares(), 0),
        (PowersOfTwo(), 1),
        (Complement(UnionSet((Squares(), FiniteSet((7,))))), 2),
    ))
    assert parse_document(serialize(seq)) == seq


def test_roundtrip_net_semigroup():
    net = parse_document(
        '{"kind":"net","elements":["a","b"],"order":[[1,1],[0,1]],"assignment":[0,1],"n":2}')
    assert parse_document(serialize(net)) == net
    sg = ValueSemigroup(("0", "1"), ((0, 1), (1, 1)), zero=0, infinity=1)
    assert parse_document(serialize(sg)) == sg
    ps = PositiveSet(sg, (0, 1))
    assert parse_document(serialize(ps)) == ps


def test_net_invariants_enforced():
    with pytest.raises(InvariantViolation):
        parse_document(
            '{"kind":"net","elements":["a","b"],"order":[[1,0],[0,1]],"assignment":[0,1],"n":2}')
    with pytest.raises(InvariantViolation):
        parse_document(
            '{"kind":"net","elements":["a","b","c"],'
            '"order":[[1,1,0],[0,1,1],[0,0,1]],"assignment":[0,0,0],"n":1}')


def _net(order, n=1):
    return DirectedNet(PointSpace(n), tuple(f"e{a}" for a in range(len(order))),
                       tuple(map(tuple, order)), (0,) * len(order))


def test_net_order_witnesses():
    # The first (a, b, c) in row order is reported, and any nonzero entry
    # relates two elements.
    with pytest.raises(InvariantViolation, match=r"not transitive at \(0,1,3\)"):
        _net([[1, 2, 0, 0], [0, 1, 0, -1], [0, 0, 1, 1], [0, 0, 0, 1]])
    with pytest.raises(InvariantViolation, match=r"not transitive at \(1,2,0\)"):
        _net([[1, 0, 0], [0, 1, 1], [1, 0, 1]])
    with pytest.raises(InvariantViolation, match="not reflexive at element 1"):
        _net([[1, 1], [0, 0]])
    # Reflexivity is checked at every element before transitivity.
    with pytest.raises(InvariantViolation, match="not reflexive at element 2"):
        _net([[1, 1, 0], [0, 1, 1], [0, 0, 0]])
    with pytest.raises(InvariantViolation, match="elements 0,1 have no upper bound"):
        _net([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert _net([[1, 2, 0], [0, 1, 0], [0, 7, -1]]).order[2][1] == 7


def test_empty_net_is_rejected():
    """A directed set is nonempty, so a net needs at least one element."""
    with pytest.raises(InvariantViolation, match="at least one element"):
        _net([])
    with pytest.raises(InvariantViolation, match="at least one element"):
        parse_document('{"kind":"net","elements":[],"order":[],"assignment":[],"n":2}')


def test_long_chain_net_parses_quickly():
    # The transitivity check is a row-mask test per related pair; a triple
    # loop over the elements is cubic (about 40 s here on a 2-core VM).
    m = 800
    doc = json.dumps({"kind": "net", "n": 1, "elements": [f"e{a}" for a in range(m)],
                      "order": [[int(b >= a) for b in range(m)] for a in range(m)],
                      "assignment": [0] * m})
    start = time.perf_counter()
    net = parse_document(doc)
    assert time.perf_counter() - start < 15
    assert len(net.elements) == m


def test_point_space_bounds():
    with pytest.raises(InvariantViolation):
        PointSpace(0)
    with pytest.raises(InvariantViolation):
        PointSpace(17)
    with pytest.raises(InvariantViolation):
        PointSpace(2, ("a", "a"))


# (points, rows, message): each fault a `Topology` refuses; per point, bits
# outside the space before reflexivity, then the first non-transitive pair.
BAD_ROWS = {
    "too few rows": (2, (0b1,), "one relation row per point required"),
    "too many rows": (2, (0b01, 0b10, 0b100), "one relation row per point required"),
    "bits outside": (2, (0b01, 0b110), "relation row has bits outside the space"),
    "negative row": (2, (-1, 0b10), "relation row has bits outside the space"),
    "outside, then not reflexive": (2, (0b101, 0b00), "relation row has bits outside the space"),
    "not reflexive, then outside": (2, (0b00, 0b110), "relation not reflexive at 0"),
    "not transitive": (3, (0b001, 0b110, 0b101), r"relation not transitive through \(1,2\)"),
    "first pair wins": (3, (0b011, 0b110, 0b101), r"relation not transitive through \(0,1\)"),
    "not transitive, then not reflexive": (3, (0b011, 0b110, 0b000), "relation not reflexive at 2"),
}


@pytest.mark.parametrize("case", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_topology_rejects_rows_that_are_no_preorder(case):
    n, rows, message = case
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        Topology(PointSpace(n), rows)


def test_non_closed_document_is_refused_even_unvalidated():
    """A `Topology` is always a topology, so the lenient parse checks the
    closure too, and raises with every violation `check_topology` lists;
    the validated parse stops at the first."""
    doc = _topology_doc([], [0], [1])
    expected = topology.check_topology(PointSpace(2), [0b00, 0b01, 0b10])
    assert [v.kind for v in expected] == ["no-full-set", "union-escape"]
    for validate, violations in ((True, expected[:1]), (False, expected)):
        with pytest.raises(InvariantViolation) as info:
            parse_document(doc, validate=validate)
        assert str(info.value) == "not a topology: no-full-set"
        assert info.value.violations == tuple(violations)


def test_validated_parse_reads_the_neighbourhood_rows_once(monkeypatch):
    """A closed topology document is closure-checked and turned into its
    `Topology` from one computation of its neighbourhood rows."""
    calls = []
    real = topology._neighborhood_rows
    monkeypatch.setattr(topology, "_neighborhood_rows",
                        lambda space, masks: calls.append(1) or real(space, masks))
    t = parse_document(_topology_doc(*([p for p in range(12) if u >> p & 1]
                                       for u in range(1 << 12)), n=12))
    assert t.rows == tuple(1 << x for x in range(12))
    assert len(calls) == 1


_SEMIGROUP = '{"kind":"semigroup","elements":["0","1"],"add":[[0,1],[1,1]],"zero":0,"infinity":1'
_XOR = '{"kind":"semigroup","elements":["0","1"],"add":[[0,1],[1,0]],"zero":0,"infinity":1'


@pytest.mark.parametrize("doc, noun, check", [
    (_qmetric_doc(["i0", "i1"], [[0, 0], [0, 0]], [[0, 1], [1, 1]]), "quasimetric family",
     check_quasifamily),
    (_XOR + "}", "value semigroup", continuity.check_value_semigroup),
    (_XOR + ',"positives":[0,1]}', "value semigroup",
     lambda value: continuity.check_value_semigroup(value.semigroup)),
    (_SEMIGROUP + ',"positives":[1]}', "set of positives", continuity.check_positives),
], ids=["family", "semigroup", "positives of a broken semigroup", "positives"])
def test_validated_parse_refuses_the_first_broken_promise(doc, noun, check):
    """A validated parse raises with every violation of the first axioms the
    document breaks, a set of positives its semigroup's before its own; the
    unvalidated parse returns the value those violations are read off."""
    violations = check(parse_document(doc, validate=False))
    assert violations
    with pytest.raises(InvariantViolation) as info:
        parse_document(doc)
    assert str(info.value) == f"not a {noun}: {violations[0]}"
    assert info.value.violations == tuple(violations)


def test_labels_are_presentation_only():
    labelled = PointSpace(2, ("p", "q"))
    plain = PointSpace(2)
    assert labelled.compatible(plain)
    merged = labelled.subset([0]) | plain.subset([1])
    assert members(merged) == [0, 1]
    doc = parse_document('{"kind":"topology","n":2,"labels":["p","q"],'
                         '"opens":[[],[1],[0,1]]}')
    assert doc.space.labels == ("p", "q")
    assert parse_document(serialize(doc)) == doc


def test_sequence_rule_order_resolves_overlaps():
    space = PointSpace(3)
    seq = SequenceSpec(space, 0, (
        (ResidueClasses(2, (0,)), 1),
        (ResidueClasses(3, (0,)), 2),
    ))
    assert [value_at(seq, k) for k in range(1, 8)] == [0, 1, 2, 1, 0, 1, 0]


@st.composite
def preorder_families(draw):
    n = draw(st.integers(1, 3))
    preorders = list(enumerate_preorders(n))
    count = draw(st.integers(1, 3))
    picks = draw(st.lists(st.sampled_from(range(len(preorders))),
                          min_size=count, max_size=count))
    return QuasiFamily(PointSpace(n), tuple(f"i{k}" for k in range(count)),
                       tuple(preorders[i].rows for i in picks))


@given(preorder_families())
def test_family_documents_roundtrip(q):
    assert parse_document(serialize(q)) == label_sorted(q)
    assert serialize(q) == serialize(label_sorted(q))


@given(st.integers(1, 3), st.data())
def test_triangle_iff_transitive_zero_relation(n, data):
    """The two formulations of the family invariant agree on arbitrary
    {0,1} matrices with zero diagonal."""
    bits = data.draw(st.integers(0, 2 ** (n * n) - 1))
    m = [[(bits >> (n * x + y)) & 1 for y in range(n)] for x in range(n)]
    for x in range(n):
        m[x][x] = 0
    q = matrix_family(n, m)
    triangle_ok = all(m[x][z] <= m[x][y] + m[y][z]
                      for x in range(n) for y in range(n) for z in range(n))
    zero_rel = {(x, y) for x in range(n) for y in range(n) if m[x][y] == 0}
    transitive = all((x, z) in zero_rel
                     for (x, y) in zero_rel for (y2, z) in zero_rel if y2 == y)
    assert triangle_ok == transitive == (not check_quasifamily(q))


def test_preorder_family_helper_is_valid():
    for t in enumerate_preorders(3):
        assert not check_quasifamily(preorder_family(t))


# ---------------------------------------------------------------------------
# Records


_SG = ValueSemigroup(("0", "1"), ((0, 1), (1, 1)), 0, 1)

# Field values of one instance of every record class, in field order.
RECORD_SAMPLES = {
    PointSpace: (2, ("a", "b")),
    Topology: (PointSpace(2), (3, 2)),
    QuasiFamily: (PointSpace(2), ("i0",), ((1, 3),)),
    FiniteSet: ((1, 3),),
    ResidueClasses: (4, (1, 3)),
    Squares: (),
    PowersOfTwo: (),
    Complement: (Squares(),),
    UnionSet: ((Squares(), FiniteSet((2,))),),
    SequenceSpec: (PointSpace(2), 0, ((Squares(), 1),)),
    DirectedNet: (PointSpace(2), ("a",), ((1,),), (0,)),
    helpers.PointMap: (PointSpace(2), PointSpace(1), (0, 0)),
    ValueSemigroup: (("0", "1"), ((0, 1), (1, 1)), 0, 1),
    PositiveSet: (_SG, (0, 1)),
    topology.TopologyViolation: ("union", ((0,), (1,))),
    qmetric.QuasiViolation: ("triangle", "i0", (0, 1, 2)),
    qmetric.DensityValue: ("exact", Fraction(1, 2), None, None),
    qmetric.IndexDensityReport: ("i0", Squares(), qmetric.DensityValue("exact", Fraction(0)),
                                 ((10, 3),)),
    qmetric.StatResult: ("true", ()),
    representation.RoundtripReport: (True, (), ()),
    continuity.AxiomViolation: ("identity", (0,)),
    helpers.ContinuitySpace: (PointSpace(1), _SG, PositiveSet(_SG, (1,)), ((0,),)),
    _tails.TailTypes: (1, 0, 0b1),
}


def test_samples_cover_every_record_class():
    """Every record shares one `__init__`, so that identifies the classes;
    the test helpers hold the records of the routes kept as oracles."""
    modules = (core, topology, qmetric, representation, continuity, _tails, helpers)
    found = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and value.__init__ is PointSpace.__init__}
    assert found == set(RECORD_SAMPLES)


@pytest.mark.parametrize("cls", RECORD_SAMPLES, ids=lambda cls: cls.__name__)
def test_record_equality_hash_and_repr(cls):
    values = RECORD_SAMPLES[cls]
    names = cls.__slots__
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert tuple(getattr(a, name) for name in names) == values
    assert a == b and not a != b and hash(a) == hash(b) == hash(values)
    assert a != values and a != object()
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"


def test_records_of_different_classes_are_unequal():
    assert Squares() == Squares() and Squares() != PowersOfTwo()
    assert FiniteSet((1,)) != Complement(FiniteSet((1,)))
    assert len({Squares(), PowersOfTwo(), Squares()}) == 2


def test_record_repr_matches_the_dataclass_format():
    assert repr(PointSpace(3)) == "PointSpace(n=3, labels=None)"
    assert repr(Complement(Squares())) == "Complement(of=Squares())"
    assert repr(qmetric.DensityValue.unknown("why")) == \
        "DensityValue(kind='unknown', value=None, bound=None, reason='why')"


@pytest.mark.parametrize("cls", RECORD_SAMPLES, ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    record = cls(*RECORD_SAMPLES[cls])
    for name in cls.__slots__ + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls.__slots__) == RECORD_SAMPLES[cls]


@pytest.mark.parametrize("cls", RECORD_SAMPLES, ids=lambda cls: cls.__name__)
def test_record_construction_errors(cls):
    values, names = RECORD_SAMPLES[cls], cls.__slots__
    with pytest.raises(TypeError, match="positional"):
        cls(*values, 0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'unknown'"):
        cls(*values, unknown=0)
    if names:
        with pytest.raises(TypeError, match=f"missing required arguments: '{names[0]}'"):
            cls()
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            cls(*values, **{names[0]: values[0]})


def test_record_defaults_and_post_init():
    assert PointSpace(3).labels is None
    assert SequenceSpec(PointSpace(2), 0).rules == ()
    assert qmetric.DensityValue("exact") == qmetric.DensityValue("exact", None, None, None)
    assert FiniteSet((3, 1, 3)).members == (1, 3)
    assert FiniteSet(members=(3, 1, 3)) == FiniteSet((1, 3))
    assert ResidueClasses(5, (4, 1, 4)).residues == (1, 4)
    assert PositiveSet(_SG, (1, 0, 1)).members == (0, 1)
    with pytest.raises(InvariantViolation):
        PointSpace(n=0)
    with pytest.raises(InvariantViolation):
        SequenceSpec(PointSpace(2), default=2)


def test_no_module_imports_dataclasses():
    """Records replace `dataclasses`, whose import and per-class code
    generation would cost every CLI call its start-up time."""
    sources = sorted(pathlib.Path(core.__file__).parent.glob("*.py"))
    assert sources
    importers = [path.name for path in sources
                 if re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M)]
    assert importers == []


def test_members_text_is_the_compact_json_of_members():
    """`canonical_family` labels its indices with `members_text`, and
    `serialize` writes each zero row with `distances_text`: both must give
    the bytes of the compact JSON list, for every mask of every space."""
    rng = random.Random(0)
    for n in range(1, MAX_POINTS + 1):
        full = (1 << n) - 1
        masks = range(1 << n) if n <= 10 else [0, full, *rng.sample(range(full), 500)]
        for m in masks:
            assert members_text(m) == json.dumps(members(m), separators=(",", ":"))
            distances = [0 if m >> y & 1 else 1 for y in range(n)]
            assert distances_text(n, m) == json.dumps(distances, separators=(",", ":"))
