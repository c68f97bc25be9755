"""Finite topologies as families of 0-1 valued quasimetrics.

Core surface: value types and the document format in `core`, direct
topological oracles in `topology`, quasimetric machinery in `qmetric`,
the topology <-> family constructions in `representation`, the value
semigroup and positives checkers in `continuity`, and the batch CLI in
`cli`.
"""
