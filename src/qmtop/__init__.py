"""Finite topologies as families of 0-1 valued quasimetrics.

Core surface: value types and the document format in `core`, direct
topological oracles in `topology`, quasimetric machinery in `qmetric`,
the topology <-> family constructions in `representation`, value
semigroups and continuity spaces in `continuity`, and the batch CLI in
`cli`.
"""

from .core import (
    Complement,
    DirectedNet,
    DocumentError,
    DocumentSyntaxError,
    FiniteSet,
    InvariantViolation,
    PointMap,
    PointSpace,
    PositiveSet,
    PowersOfTwo,
    QuasiFamily,
    ResidueClasses,
    SequenceSpec,
    SpaceMismatchError,
    Squares,
    Topology,
    UnionSet,
    ValueSemigroup,
    parse_document,
    serialize,
)

__version__ = "0.1.0"

__all__ = [
    "Complement",
    "DirectedNet",
    "DocumentError",
    "DocumentSyntaxError",
    "FiniteSet",
    "InvariantViolation",
    "PointMap",
    "PointSpace",
    "PositiveSet",
    "PowersOfTwo",
    "QuasiFamily",
    "ResidueClasses",
    "SequenceSpec",
    "SpaceMismatchError",
    "Squares",
    "Topology",
    "UnionSet",
    "ValueSemigroup",
    "parse_document",
    "serialize",
    "__version__",
]
