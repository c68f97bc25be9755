"""Foundational value types and the JSON document format.

Points of an n-point space are the indices 0..n-1; every subset is an
n-bit mask (bit p set iff point p is a member).  All values here are
immutable and compare and hash by their fields, so they serve as set
members and cache keys.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Union

from ._kernels import members, triangles, upsets  # noqa: F401  (members: re-exported)


MAX_POINTS = 16
# Index-set descriptors are walked recursively, so their nesting is bounded
# well inside the interpreter's recursion limit.
MAX_SET_DEPTH = 100


class DocumentError(ValueError):
    """Base class for document parsing failures."""


class DocumentSyntaxError(DocumentError):
    """Malformed document: bad JSON, wrong shapes, unknown kinds."""


class InvariantViolation(DocumentError):
    """Well-formed document whose payload breaks a promised invariant."""

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class SpaceMismatchError(ValueError):
    """Operands live over different point spaces."""


# ---------------------------------------------------------------------------
# Records: immutable values compared, hashed and shown by their fields


def _values(obj) -> tuple:
    return tuple([getattr(obj, name) for name in obj.__slots__])


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls.__slots__
    if kwargs or len(args) != len(names):
        args = _bind(cls, args, kwargs)
    for name, value in zip(names, args):
        object.__setattr__(self, name, value)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The field values of a call with keywords, defaults or a wrong count."""
    names, title = cls.__slots__, cls.__name__
    if len(args) > len(names):
        raise TypeError(f"{title}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{title}() got multiple values for argument {name!r}")
        given[name] = value
    given = cls._defaults | given
    missing = [name for name in names if name not in given]
    if missing:
        raise TypeError(f"{title}() missing required arguments: "
                        + ", ".join(map(repr, missing)))
    return [given[name] for name in names]


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """An immutable slotted class with the annotated fields of `cls`.

    Fields are the names annotated in the class body, in order; a value
    assigned there is that field's default.  Instances take their fields
    positionally or by name, run `__post_init__` (if the body defines one)
    after the fields are set, compare equal only to an instance of the same
    class with equal fields, hash as the tuple of their fields and refuse
    assignment and deletion; `__post_init__` normalises a field through
    `object.__setattr__`.  Every record shares one set of these methods, so
    defining a record generates and compiles no code.
    """
    names = tuple(vars(cls).get("__annotations__", {}))
    body = {key: value for key, value in vars(cls).items()
            if key not in names and key not in ("__dict__", "__weakref__")}
    body.update(__slots__=names,
                _defaults={name: vars(cls)[name] for name in names if name in vars(cls)},
                __init__=_init, __eq__=_eq, __hash__=_hash, __repr__=_repr,
                __setattr__=_setattr, __delattr__=_delattr)
    return type(cls.__name__, cls.__bases__, body)


# ---------------------------------------------------------------------------
# Spaces, point sets, topologies, quasimetric families


@record
class PointSpace:
    """A finite carrier of n points, optionally labelled for presentation."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.n <= MAX_POINTS:
            raise InvariantViolation(f"point count must be in 1..{MAX_POINTS}, got {self.n}")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise InvariantViolation("label count differs from point count")
            if len(set(self.labels)) != self.n:
                raise InvariantViolation("labels must be pairwise distinct")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def points(self) -> range:
        return range(self.n)

    def compatible(self, other: "PointSpace") -> bool:
        """Labels are presentation only; spaces interoperate by cardinality."""
        return self.n == other.n

    def subset(self, points) -> int:
        mask = 0
        for p in points:
            self.check_point(p)
            mask |= 1 << p
        return mask

    def check_point(self, p: int) -> None:
        if not 0 <= p < self.n:
            raise InvariantViolation(f"point {p} outside space of {self.n} points")


@record
class Topology:
    """A finite topology as its specialization rows: rows[x] masks the least
    open set containing x, {y : x below y}.  A set is open iff it is an
    up-set of these rows (Alexandroff 1937), so the opens are listed only
    where a document or the canonical family needs them.

    Construction checks that the rows form a preorder, so every `Topology`
    is a topology.
    """

    space: PointSpace
    rows: tuple[int, ...]

    def __post_init__(self):
        rows, full = self.rows, self.space.full_mask
        if len(rows) != self.space.n:
            raise InvariantViolation("one relation row per point required")
        for x, row in enumerate(rows):
            if row & ~full:
                raise InvariantViolation("relation row has bits outside the space")
            if not row >> x & 1:
                raise InvariantViolation(f"relation not reflexive at {x}")
        for x, y, _ in triangles(rows):
            raise InvariantViolation(f"relation not transitive through ({x},{y})")


@record
class QuasiFamily:
    """An indexed family of {0,1}-valued distances, stored as zero rows.

    `rows[k][x]` masks {y : d_k(x, y) = 0}, so d_k(x, y) is 1 exactly when
    bit y of that row is clear.  The quasimetric axioms (bit x of row x set,
    the zero relation transitive) are verified by `qmetric.check_quasifamily`;
    construction only checks shapes.  Distance matrices exist only in
    documents: `parse_document` reads them and `serialize` writes them.
    """

    space: PointSpace
    indices: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise InvariantViolation("index labels must be distinct")
        if len(self.rows) != len(self.indices):
            raise InvariantViolation("one tuple of rows per index required")
        n, full = self.space.n, self.space.full_mask
        # Checked over all indices at once; only a failure looks for its index.
        entries = chain.from_iterable
        if self.rows and not (set(map(len, self.rows)) == {n} and min(entries(self.rows)) >= 0
                              and max(entries(self.rows)) <= full):
            label = next(label for label, rows in zip(self.indices, self.rows)
                         if len(rows) != n or min(rows) < 0 or max(rows) > full)
            raise InvariantViolation(f"rows for index {label!r} are not {n} masks "
                                     f"of {n} points")


# ---------------------------------------------------------------------------
# Describable index sets and sequences


@record
class FiniteSet:
    members: tuple[int, ...]

    def __post_init__(self):
        if any(k < 0 for k in self.members):
            raise InvariantViolation("finite index sets hold naturals only")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))


@record
class ResidueClasses:
    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise InvariantViolation("modulus must be at least 1")
        if any(not 0 <= r < self.modulus for r in self.residues):
            raise InvariantViolation("residues must lie in [0, modulus)")
        object.__setattr__(self, "residues", tuple(sorted(set(self.residues))))


@record
class Squares:
    """The perfect squares 0, 1, 4, 9, ..."""


@record
class PowersOfTwo:
    """The powers of two 1, 2, 4, 8, ..."""


@record
class Complement:
    of: "IndexSetDescriptor"


@record
class UnionSet:
    parts: tuple["IndexSetDescriptor", ...]


IndexSetDescriptor = Union[FiniteSet, ResidueClasses, Squares, PowersOfTwo, Complement, UnionSet]


@record
class SequenceSpec:
    """A finitely-described infinite sequence of points.

    The value at position k (1-based) is the point of the first rule whose
    index set contains k, falling back to `default`.  Rule order therefore
    resolves overlaps.
    """

    space: PointSpace
    default: int
    rules: tuple[tuple[IndexSetDescriptor, int], ...] = ()

    def __post_init__(self):
        self.space.check_point(self.default)
        for _, p in self.rules:
            self.space.check_point(p)


@record
class DirectedNet:
    """A net over a finite directed index set.

    `order[a][b] == 1` means element a precedes element b; `assignment[a]`
    is the point the net takes at element a.
    """

    space: PointSpace
    elements: tuple[str, ...]
    order: tuple[tuple[int, ...], ...]
    assignment: tuple[int, ...]

    def __post_init__(self):
        m = len(self.elements)
        if not m:
            raise InvariantViolation("a directed set needs at least one element")
        if len(set(self.elements)) != m:
            raise InvariantViolation("net element names must be distinct")
        if len(self.order) != m or any(len(row) != m for row in self.order):
            raise InvariantViolation("order matrix shape mismatch")
        if len(self.assignment) != m:
            raise InvariantViolation("assignment length mismatch")
        for p in self.assignment:
            self.space.check_point(p)
        for a in range(m):
            if not self.order[a][a]:
                raise InvariantViolation(f"net order not reflexive at element {a}")
        # rows[a] masks the successors of a; any nonzero entry relates.
        rows = [int("".join("1" if e else "0" for e in reversed(r)), 2) for r in self.order]
        for a, b, c in triangles(rows):
            raise InvariantViolation(f"net order not transitive at ({a},{b},{c})")
        for a in range(m):
            for b in range(m):
                if not rows[a] & rows[b]:
                    raise InvariantViolation(f"elements {a},{b} have no upper bound")


# ---------------------------------------------------------------------------
# Semigroup documents (checked in `continuity`)


@record
class ValueSemigroup:
    """A finite addition table with designated zero and infinity.

    The value-semigroup axioms are verified by
    `continuity.check_value_semigroup`, not at construction.
    """

    elements: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    zero: int
    infinity: int

    def __post_init__(self):
        m = len(self.elements)
        if m == 0:
            raise InvariantViolation("semigroup carrier may not be empty")
        if len(set(self.elements)) != m:
            raise InvariantViolation("element labels must be distinct")
        if len(self.add) != m or any(len(row) != m for row in self.add):
            raise InvariantViolation("addition table shape mismatch")
        if any(not 0 <= e < m for row in self.add for e in row):
            raise InvariantViolation("addition table entry out of range")
        if not 0 <= self.zero < m or not 0 <= self.infinity < m:
            raise InvariantViolation("zero/infinity out of range")

    @property
    def size(self) -> int:
        return len(self.elements)


@record
class PositiveSet:
    semigroup: ValueSemigroup
    members: tuple[int, ...]

    def __post_init__(self):
        for r in self.members:
            if not 0 <= r < self.semigroup.size:
                raise InvariantViolation("positive-set member out of range")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))


Document = Union[Topology, QuasiFamily, SequenceSpec, DirectedNet, ValueSemigroup, PositiveSet]


# ---------------------------------------------------------------------------
# Parsing


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentSyntaxError(message)


def _space_from(obj: dict) -> PointSpace:
    _require("n" in obj, "missing 'n'")
    n = _int(obj["n"], "'n'")
    labels = obj.get("labels")
    if labels is not None:
        _require(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
                 "labels must be a list of strings")
        return PointSpace(n, tuple(labels))
    return PointSpace(n)


def _int(v, what: str) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool), f"{what} must be an integer")
    return v


def _int_list(v, what: str) -> list[int]:
    _require(isinstance(v, list), f"{what} must be a list")
    # JSON integers decode to exactly `int`; `bool` is the only subclass.
    _require({int}.issuperset(map(type, v)), f"{what} must hold integers")
    return v


def _open_masks(space: PointSpace, opens: list) -> list[int]:
    """The mask of each open set of a topology document, one bit lookup per
    point.  Each open must be a list of points of the space; that is checked
    over all opens at once, and only a bad document is checked again open by
    open, so that the first bad open is the one reported."""
    bit = {p: 1 << p for p in space.points()}
    if not ({list}.issuperset(map(type, opens))
            and {int}.issuperset(map(type, chain.from_iterable(opens)))
            and bit.keys() >= set(chain.from_iterable(opens))):
        for points in opens:
            space.subset(_int_list(points, "open set"))
    # The OR of each open's bits, through maps alone: no Python frame per open.
    return list(map(reduce, repeat(or_), map(map, repeat(bit.__getitem__), opens), repeat(0)))


def _zero_rows(label: str, matrix: list, n: int, seen: dict) -> tuple[int, ...]:
    """The zero-row masks of one parsed distance matrix of integers.

    `seen` maps every row already accepted, as a tuple, to its mask; a
    family repeats rows often, so most rows are a dictionary lookup.
    """
    if len(matrix) != n or set(map(len, matrix)) != {n}:
        raise InvariantViolation(f"matrix for index {label!r} is not {n}x{n}")
    full = (1 << n) - 1
    keys = list(map(tuple, matrix))
    for key in set(keys).difference(seen):
        if not set(key) <= {0, 1}:
            raise InvariantViolation(f"matrix for index {label!r} has entries outside {{0,1}}")
        # The row read as a binary number, last entry first, masks its 1s.
        seen[key] = full & ~int("".join(map(str, reversed(key))), 2)
    return tuple(map(seen.__getitem__, keys))


def _descriptor_from(obj, depth: int = 1) -> IndexSetDescriptor:
    _require(isinstance(obj, dict), "index set must be an object")
    _require(depth <= MAX_SET_DEPTH, f"index sets nest at most {MAX_SET_DEPTH} deep")
    t = obj.get("type")
    if t == "finite":
        return FiniteSet(tuple(_int_list(obj.get("members"), "members")))
    if t == "residues":
        return ResidueClasses(_int(obj.get("mod"), "residues 'mod'"),
                              tuple(_int_list(obj.get("residues"), "residues")))
    if t == "squares":
        return Squares()
    if t == "powers_of_two":
        return PowersOfTwo()
    if t == "complement":
        return Complement(_descriptor_from(obj.get("of"), depth + 1))
    if t == "union":
        _require(isinstance(obj.get("of"), list), "union set needs a list 'of'")
        return UnionSet(tuple(_descriptor_from(p, depth + 1) for p in obj["of"]))
    raise DocumentSyntaxError(f"unknown index set type {t!r}")


def _descriptor_json(ds: IndexSetDescriptor) -> dict:
    if isinstance(ds, FiniteSet):
        return {"type": "finite", "members": list(ds.members)}
    if isinstance(ds, ResidueClasses):
        return {"type": "residues", "mod": ds.modulus, "residues": list(ds.residues)}
    if isinstance(ds, Squares):
        return {"type": "squares"}
    if isinstance(ds, PowersOfTwo):
        return {"type": "powers_of_two"}
    if isinstance(ds, Complement):
        return {"type": "complement", "of": _descriptor_json(ds.of)}
    if isinstance(ds, UnionSet):
        return {"type": "union", "of": [_descriptor_json(p) for p in ds.parts]}
    raise TypeError(f"not a descriptor: {ds!r}")


def axiom_violations(value: Document) -> tuple[str, list]:
    """What a parsed value promises to be, and every violation of the first
    axioms it breaks: a set of positives promises its semigroup's before its
    own.  Every other value, a `Topology` too, keeps its promises as it is
    built."""
    from . import continuity, qmetric

    if isinstance(value, QuasiFamily):
        return "quasimetric family", qmetric.check_quasifamily(value)
    if isinstance(value, ValueSemigroup):
        return "value semigroup", continuity.check_value_semigroup(value)
    if isinstance(value, PositiveSet):
        noun, violations = axiom_violations(value.semigroup)
        if violations:
            return noun, violations
        return "set of positives", continuity.check_positives(value)
    return type(value).__name__, []


def parse_document(text: str, *, validate: bool = True) -> Document:
    """Decode a JSON document into its value.

    With `validate=True` (the default) the axioms the value promises
    (`axiom_violations`) are verified, and an `InvariantViolation` carrying
    every violation is raised on failure.  Checker front ends parse with
    `validate=False` so violations become reportable data instead of parse
    errors.  A topology document is closure-checked either way, because a
    `Topology` holds only its rows; its violations ride on the
    `InvariantViolation`, only the first when validated.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise DocumentSyntaxError("invalid JSON: nested too deeply") from None
    _require(isinstance(obj, dict), "document must be a JSON object")
    kind = obj.get("kind")

    if kind == "topology":
        space = _space_from(obj)
        _require(isinstance(obj.get("opens"), list), "topology needs a list of opens")
        masks = sorted(_open_masks(space, obj["opens"]))
        if len(set(masks)) != len(masks):
            raise InvariantViolation("duplicate open sets")
        from . import topology as _topology

        # Checked even unvalidated: a `Topology` exists only for a topology.
        # Only the unvalidated parse reports past the first failure.
        generated = _topology.generate_from_subbase(space, masks)
        failures = _topology.closure_failures(generated, masks)
        first = next(failures, None)
        if first is not None:
            raise InvariantViolation(f"not a topology: {first}",
                                     (first,) if validate else (first, *failures))
        return generated

    elif kind == "qmetric":
        space = _space_from(obj)
        _require(isinstance(obj.get("indices"), list), "qmetric needs index labels")
        _require(all(isinstance(s, str) for s in obj["indices"]), "index labels must be strings")
        _require(isinstance(obj.get("matrices"), list), "qmetric needs matrices")
        _require(len(obj["matrices"]) == len(obj["indices"]), "one matrix per index required")
        for m in obj["matrices"]:
            _require(isinstance(m, list) and set(map(type, m)) <= {list},
                     "matrix must be a list of rows")
            _require(set(map(type, chain.from_iterable(m))) <= {int},
                     "matrix row must hold integers")
        indices = tuple(obj["indices"])
        # Repeated labels are reported before any matrix's shape or entries.
        if len(set(indices)) != len(indices):
            raise InvariantViolation("index labels must be distinct")
        seen: dict = {}
        value = QuasiFamily(space, indices, tuple(_zero_rows(label, m, space.n, seen)
                                                  for label, m in zip(indices, obj["matrices"])))

    elif kind == "sequence":
        space = _space_from(obj)
        default = _int(obj.get("default"), "sequence 'default'")
        _require(isinstance(obj.get("rules", []), list), "sequence 'rules' must be a list")
        rules = []
        for rule in obj.get("rules", []):
            _require(isinstance(rule, dict) and "set" in rule and "point" in rule,
                     "each rule needs 'set' and 'point'")
            rules.append((_descriptor_from(rule["set"]), _int(rule["point"], "rule point")))
        return SequenceSpec(space, default, tuple(rules))

    elif kind == "net":
        space = _space_from(obj)
        _require(isinstance(obj.get("elements"), list), "net needs element names")
        _require(all(isinstance(s, str) for s in obj["elements"]), "element names must be strings")
        _require(isinstance(obj.get("order"), list), "net needs an order matrix")
        order = tuple(tuple(_int_list(r, "order row")) for r in obj["order"])
        assignment = tuple(_int_list(obj.get("assignment"), "assignment"))
        return DirectedNet(space, tuple(obj["elements"]), order, assignment)

    elif kind == "semigroup":
        _require(isinstance(obj.get("elements"), list), "semigroup needs element labels")
        _require(all(isinstance(s, str) for s in obj["elements"]), "element labels must be strings")
        _require(isinstance(obj.get("add"), list), "semigroup needs an addition table")
        add = tuple(tuple(_int_list(r, "add row")) for r in obj["add"])
        value = ValueSemigroup(tuple(obj["elements"]), add,
                               _int(obj.get("zero"), "semigroup 'zero'"),
                               _int(obj.get("infinity"), "semigroup 'infinity'"))
        if "positives" in obj:
            value = PositiveSet(value, tuple(_int_list(obj["positives"], "positives")))

    else:
        raise DocumentSyntaxError(f"unknown document kind {kind!r}")

    if validate:
        noun, violations = axiom_violations(value)
        if violations:
            raise InvariantViolation(f"not a {noun}: {violations[0]}", tuple(violations))
    return value


# ---------------------------------------------------------------------------
# Serialization (canonical: deterministic, byte-identical on repeats)


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _space_json(space: PointSpace, obj: dict) -> dict:
    obj["n"] = space.n
    if space.labels is not None:
        obj["labels"] = list(space.labels)
    return obj


# Topology and qmetric documents are written as text: a prefix, then one
# short JSON list per open or per zero row, looked up rather than encoded
# again, so a document stream can share one table across every document.


def _byte_texts(absent: str, presents) -> list[str]:
    """The text of each byte value: for bits 0 to 7, `absent` where the bit
    is clear and that bit's entry of `presents` where it is set."""
    texts = [""]
    for present in presents:
        texts = [t + absent for t in texts] + [t + present for t in texts]
    return texts


# A mask of a space has at most 16 bits, so each text below is one lookup per
# byte, and every entry of a byte's text ends in a comma.
_LOW_MEMBERS = _byte_texts("", [f"{p}," for p in range(8)])
_HIGH_MEMBERS = _byte_texts("", [f"{p}," for p in range(8, 16)])
_DISTANCES = _byte_texts("1,", ["0,"] * 8)


def members_text(mask: int) -> str:
    """The compact JSON text of `members(mask)` for a mask of a space."""
    return "[" + (_LOW_MEMBERS[mask & 255] + _HIGH_MEMBERS[mask >> 8])[:-1] + "]"


def distances_text(n: int, row: int) -> str:
    """The compact JSON text of the distance list of a zero row: 0 at its
    points, 1 elsewhere."""
    return "[" + (_DISTANCES[row & 255] + _DISTANCES[row >> 8])[:2 * n - 1] + "]"


def _open_prefix(obj: dict) -> str:
    """The compact text of a document whose last value is an empty list, cut
    before that list's closing bracket."""
    return _dump(obj)[:-2]


def topology_prefix(space: PointSpace) -> str:
    """The text of a topology document up to its first open."""
    return _open_prefix(_space_json(space, {"kind": "topology"}) | {"opens": []})


def topology_text(prefix: str, opens, text_of=members_text) -> str:
    """The topology document of `topology_prefix` and ascending open masks,
    each written as `text_of(mask)`."""
    return prefix + ",".join(map(text_of, opens)) + "]}"


def qmetric_prefix(space: PointSpace, indices) -> str:
    """The text of a qmetric document up to its first matrix."""
    return _open_prefix(_space_json(space, {"kind": "qmetric"})
                        | {"indices": list(indices), "matrices": []})


def qmetric_text(prefix: str, rows, text_of) -> str:
    """The qmetric document of `qmetric_prefix` and the zero rows of each
    index, each row written as `text_of(row)`."""
    return prefix + ",".join("[" + ",".join(map(text_of, r)) + "]" for r in rows) + "]}"


def serialize(value: Document) -> str:
    """Canonical document of a value; `parse_document` round-trips it.

    Opens (the up-sets of a topology's rows) and members are emitted
    ascending by mask/point, quasimetric indices are sorted by label with
    their matrices, d(x, y) = 0 exactly where bit y of zero row x is set,
    permuted consistently.
    """
    if isinstance(value, Topology):
        return topology_text(topology_prefix(value.space), upsets(value.rows))

    if isinstance(value, QuasiFamily):
        # Indices sorted by label, rows permuted consistently.
        order = sorted(range(len(value.indices)), key=value.indices.__getitem__)
        rows = list(map(value.rows.__getitem__, order))
        n = value.space.n
        # One text per distinct zero row, shared by every matrix holding it.
        distances = {z: distances_text(n, z) for z in set(chain.from_iterable(rows))}
        return qmetric_text(qmetric_prefix(value.space, map(value.indices.__getitem__, order)),
                            rows, distances.__getitem__)

    if isinstance(value, SequenceSpec):
        obj = _space_json(value.space, {"kind": "sequence"})
        obj["default"] = value.default
        obj["rules"] = [{"set": _descriptor_json(ds), "point": p} for ds, p in value.rules]
        return _dump(obj)

    if isinstance(value, DirectedNet):
        order = sorted(range(len(value.elements)), key=lambda a: value.elements[a])
        obj = {"kind": "net",
               "elements": [value.elements[a] for a in order],
               "order": [[value.order[a][b] for b in order] for a in order],
               "assignment": [value.assignment[a] for a in order]}
        _space_json(value.space, obj)
        return _dump(obj)

    if isinstance(value, (ValueSemigroup, PositiveSet)):
        sg = value.semigroup if isinstance(value, PositiveSet) else value
        obj = {"kind": "semigroup", "elements": list(sg.elements),
               "add": [list(r) for r in sg.add], "zero": sg.zero, "infinity": sg.infinity}
        if sg is not value:
            obj["positives"] = list(value.members)
        return _dump(obj)

    raise TypeError(f"cannot serialize {type(value).__name__}")
