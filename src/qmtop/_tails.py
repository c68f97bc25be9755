"""Exact tail behaviour of finitely-described sequences.

Beyond the largest finite-rule member, the value of a sequence at position k
depends only on the *type* of k: its residue modulo the lcm of all rule
moduli, whether it is a perfect square, and whether it is a power of two.
Each type is either realised by unboundedly many positions or by an explicit
finite list, and both facts are decided exactly:

* residue classes are infinite in every residue;
* squares meet a residue class r mod M infinitely often iff r is a square
  modulo M, and otherwise never;
* powers of two (split by exponent parity, since 2^e is a square iff e is
  even) follow the eventually periodic orbit of 2^e mod M, so a class is
  hit infinitely often iff it appears in the orbit's cycle, and the finitely
  many pre-cycle hits are listed explicitly.

One finite scan over the types gives the mask of values that some
unboundedly realised type takes, which turns "the sequence is eventually
inside S" into one AND against S, with an explicit settle bound past which
the typed behaviour governs.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .core import (
    Complement,
    FiniteSet,
    IndexSetDescriptor,
    PowersOfTwo,
    ResidueClasses,
    SequenceSpec,
    Squares,
    UnionSet,
    members,
    record,
)

# Exactness over types costs O(modulus lcm); refuse rather than guess past this.
MODULUS_CAP = 10_000


class TailAnalysisError(ValueError):
    """The rule moduli are too entangled for exact tail analysis."""


@record
class TailTypes:
    modulus: int
    settle: int
    # flat tuple indexed by 4*r + 2*s + p
    values: tuple[int, ...]
    # mask of the values some unboundedly realised type takes
    recurrent: int


def _walk(ds: IndexSetDescriptor, moduli: list[int], finite_max: list[int]) -> None:
    if isinstance(ds, FiniteSet):
        if ds.members:
            finite_max[0] = max(finite_max[0], ds.members[-1])
    elif isinstance(ds, ResidueClasses):
        moduli.append(ds.modulus)
    elif isinstance(ds, Complement):
        _walk(ds.of, moduli, finite_max)
    elif isinstance(ds, UnionSet):
        for p in ds.parts:
            _walk(p, moduli, finite_max)


def _contains_type(ds: IndexSetDescriptor, r: int, s: int, p: int) -> bool:
    if isinstance(ds, FiniteSet):
        return False
    if isinstance(ds, ResidueClasses):
        return r % ds.modulus in ds.residues
    if isinstance(ds, Squares):
        return s == 1
    if isinstance(ds, PowersOfTwo):
        return p == 1
    if isinstance(ds, Complement):
        return not _contains_type(ds.of, r, s, p)
    if isinstance(ds, UnionSet):
        return any(_contains_type(q, r, s, p) for q in ds.parts)
    raise TypeError(f"not a descriptor: {ds!r}")


def _pow_orbit(base: int, modulus: int, with_parity: bool):
    """Preperiod length and cycle states of e -> base**e mod modulus.

    States are residues, or (e mod 2, residue) pairs when parity matters.
    """
    seen: dict = {}
    seq = []
    r = 1 % modulus
    e = 0
    while True:
        state = ((e & 1, r) if with_parity else r)
        if state in seen:
            start = seen[state]
            return start, set(seq[start:])
        seen[state] = e
        seq.append(state)
        r = r * base % modulus
        e += 1


@lru_cache(maxsize=4096)
def tail_types(seq: SequenceSpec) -> TailTypes:
    moduli: list[int] = []
    finite_max = [0]
    for ds, _ in seq.rules:
        _walk(ds, moduli, finite_max)

    modulus = 1
    for m in moduli:
        modulus = math.lcm(modulus, m)
        if modulus > MODULUS_CAP:
            raise TailAnalysisError(
                f"lcm of rule moduli exceeds {MODULUS_CAP}; exact tail analysis refused")

    square_residues = {j * j % modulus for j in range(modulus)}
    pre2, cycle2 = _pow_orbit(2, modulus, with_parity=True)
    pre4, cycle4 = _pow_orbit(4, modulus, with_parity=False)

    settle = finite_max[0]
    for e in range(pre2):
        if e & 1:
            settle = max(settle, 1 << e)
    for e in range(pre4):
        settle = max(settle, 1 << (2 * e))

    values: list[int] = []
    recurrent = 0
    for r in range(modulus):
        for s in (0, 1):
            for p in (0, 1):
                value = seq.default
                for ds, point in seq.rules:
                    if _contains_type(ds, r, s, p):
                        value = point
                        break
                if s and p:
                    vast = r in cycle4
                elif s:
                    vast = r in square_residues
                elif p:
                    vast = (1, r) in cycle2
                else:
                    vast = True
                values.append(value)
                if vast:
                    recurrent |= 1 << value

    return TailTypes(modulus, settle, tuple(values), recurrent)


def eventually_in(seq: SequenceSpec, good_mask: int) -> bool:
    """Whether all but finitely many positions take a value inside the mask."""
    return not tail_types(seq).recurrent & ~good_mask


def recurrent_values(seq: SequenceSpec) -> frozenset[int]:
    """Values taken at unboundedly many positions."""
    return frozenset(members(tail_types(seq).recurrent))


def settle_bound(seq: SequenceSpec) -> int:
    """Bound past which only unbounded types are realised."""
    return tail_types(seq).settle


def evaluate_range(seq: SequenceSpec, kmax: int) -> list[int]:
    """One position mask per point: bit k is set iff position k (1..kmax)
    takes that point.  The masks partition positions 1..kmax."""
    rest = (2 << kmax) - 2
    masks = [0] * seq.space.n
    for ds, point in seq.rules:
        hit = _member_bits(ds, kmax) & rest
        masks[point] |= hit
        rest ^= hit
    masks[seq.default] |= rest
    return masks


def _position_bits(positions, top: int) -> int:
    """Mask of the given positions, each at most top, set through a byte
    buffer: linear, where OR-ing one shifted bit at a time is quadratic."""
    buf = bytearray(top // 8 + 1)
    for k in positions:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def _member_bits(ds: IndexSetDescriptor, top: int) -> int:
    """Mask of the members of ds among positions 0..top."""
    if isinstance(ds, FiniteSet):
        return _position_bits((k for k in ds.members if k <= top), top)
    if isinstance(ds, ResidueClasses):
        if ds.modulus > top:
            return _position_bits((r for r in ds.residues if r <= top), top)
        # One period, doubled by shifts until it covers 0..top.
        bits, span = _position_bits(ds.residues, ds.modulus - 1), ds.modulus
        while span <= top:
            bits |= bits << span
            span *= 2
        return bits & ((2 << top) - 1)
    if isinstance(ds, Squares):
        return _position_bits((j * j for j in range(math.isqrt(top) + 1)), top)
    if isinstance(ds, PowersOfTwo):
        return _position_bits((1 << e for e in range(top.bit_length())), top)
    if isinstance(ds, Complement):
        return _member_bits(ds.of, top) ^ ((2 << top) - 1)
    if isinstance(ds, UnionSet):
        bits = 0
        for part in ds.parts:
            bits |= _member_bits(part, top)
        return bits
    raise TypeError(f"not a descriptor: {ds!r}")


def assert_tail_consistent(seq: SequenceSpec, good_mask: int, decided: bool,
                           horizon: int) -> None:
    """Cross-check a positive eventual-membership verdict by direct scan.

    A "true" verdict promises no excursion outside the mask past the settle
    bound, which a finite scan can refute; a "false" verdict only promises
    excursions somewhere in an unbounded (possibly very sparse) set, so the
    scan cannot refute it and is skipped.
    """
    if not decided:
        return
    start = settle_bound(seq)
    if start >= horizon:
        return
    outside = 0
    for v, positions in enumerate(evaluate_range(seq, horizon)):
        if not good_mask >> v & 1:
            outside |= positions
    outside >>= start + 1
    if outside:
        k = start + (outside & -outside).bit_length()
        raise AssertionError(
            f"tail analysis claimed eventual membership, but position {k} "
            f"takes value {seq.value_at(k)} outside mask {good_mask:#x}")
