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

Each rule's index set is one mask over the 4M types (`_type_bits`), built
by the one fold that also builds its mask over positions (`_member_bits`),
and the first matching rule takes the types no earlier rule took.  That
gives the mask of values that some unboundedly realised type takes, which
turns "the sequence is eventually inside S" into one AND against S, with an
explicit settle bound past which the typed behaviour governs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

from .core import (
    Complement,
    FiniteSet,
    IndexSetDescriptor,
    PowersOfTwo,
    ResidueClasses,
    SequenceSpec,
    Squares,
    UnionSet,
    record,
)

# Exactness over types costs O(modulus lcm); refuse rather than guess past this.
MODULUS_CAP = 10_000


class TailAnalysisError(ValueError):
    """The rule moduli are too entangled for exact tail analysis."""


@record
class TailTypes:
    modulus: int
    # past this position only unboundedly realised types occur
    settle: int
    # mask of the values some unboundedly realised type takes
    recurrent: int


def _parts(ds: IndexSetDescriptor):
    """ds and every descriptor nested inside it."""
    yield ds
    if isinstance(ds, Complement):
        yield from _parts(ds.of)
    elif isinstance(ds, UnionSet):
        for part in ds.parts:
            yield from _parts(part)


def _pow_orbit(base: int, modulus: int, with_parity: bool):
    """Preperiod length and cycle states of e -> base**e mod modulus.

    States are residues, or (e mod 2, residue) pairs when parity matters.
    """
    seen: dict = {}  # state -> first exponent, in exponent order
    r, e = 1 % modulus, 0
    while (state := (e & 1, r) if with_parity else r) not in seen:
        seen[state] = e
        r, e = r * base % modulus, e + 1
    return seen[state], set(list(seen)[seen[state]:])


@lru_cache(maxsize=4096)
def tail_types(seq: SequenceSpec) -> TailTypes:
    parts = [part for ds, _ in seq.rules for part in _parts(ds)]
    modulus = 1
    for part in parts:
        if isinstance(part, ResidueClasses):
            modulus = math.lcm(modulus, part.modulus)
            if modulus > MODULUS_CAP:
                raise TailAnalysisError(
                    f"lcm of rule moduli exceeds {MODULUS_CAP}; exact tail analysis refused")

    square_residues = {j * j % modulus for j in range(modulus)}
    pre2, cycle2 = _pow_orbit(2, modulus, with_parity=True)
    pre4, cycle4 = _pow_orbit(4, modulus, with_parity=False)
    settle = max([0, *(part.members[-1] for part in parts
                       if isinstance(part, FiniteSet) and part.members),
                  *(1 << e for e in range(1, pre2, 2)), *(1 << 2 * e for e in range(pre4))])

    # The types realised at unboundedly many positions: every residue off
    # the squares and powers of two, the square residues at squares that
    # are not powers of two, the cycle of odd powers of two, and the cycle
    # of powers of four.
    vast = _tile(0b0001, 4, 4 * modulus) | _position_bits(chain(
        (4 * r + 2 for r in square_residues),
        (4 * r + 1 for odd, r in cycle2 if odd),
        (4 * r + 3 for r in cycle4)), 4 * modulus - 1)
    rest, recurrent = (1 << 4 * modulus) - 1, 0
    for ds, point in seq.rules:
        hit = _type_bits(ds, modulus) & rest
        if hit & vast:
            recurrent |= 1 << point
        rest ^= hit
    if rest & vast:
        recurrent |= 1 << seq.default
    return TailTypes(modulus, settle, recurrent)


def eventually_in(seq: SequenceSpec, good_mask: int) -> bool:
    """Whether all but finitely many positions take a value inside the mask."""
    return not tail_types(seq).recurrent & ~good_mask


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
        return _tile(_position_bits(ds.residues, ds.modulus - 1), ds.modulus, top + 1)
    if isinstance(ds, Squares):
        return _position_bits((j * j for j in range(math.isqrt(top) + 1)), top)
    if isinstance(ds, PowersOfTwo):
        return _position_bits((1 << e for e in range(top.bit_length())), top)
    return _fold(ds, _member_bits, top, top + 1)


def _fold(ds: IndexSetDescriptor, bits, arg: int, width: int) -> int:
    """The mask `bits(ds, arg)` of a complement or a union, over a universe
    of `width` bits: a complement XORs the universe and a union ORs its
    parts, each part's mask taken by `bits` itself."""
    if isinstance(ds, Complement):
        return bits(ds.of, arg) ^ ((1 << width) - 1)
    if isinstance(ds, UnionSet):
        out = 0
        for part in ds.parts:
            out |= bits(part, arg)
        return out
    raise TypeError(f"not a descriptor: {ds!r}")


def _tile(pattern: int, width: int, total: int) -> int:
    """A pattern of `width` bits repeated over the low `total` bits, doubled
    by shifts."""
    while width < total:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << total) - 1)


def _type_bits(ds: IndexSetDescriptor, modulus: int) -> int:
    """Mask of the tail types that ds contains, type (r, s, p) at bit
    4r + 2s + p: r the residue mod modulus (which every rule modulus
    divides), s set at a square and p at a power of two.  A finite set
    holds no type: it ends before the settle bound."""
    if isinstance(ds, FiniteSet):
        return 0
    if isinstance(ds, ResidueClasses):
        period = _position_bits((4 * r for r in ds.residues), 4 * ds.modulus - 1) * 0b1111
        return _tile(period, 4 * ds.modulus, 4 * modulus)
    if isinstance(ds, Squares):
        return _tile(0b1100, 4, 4 * modulus)
    if isinstance(ds, PowersOfTwo):
        return _tile(0b1010, 4, 4 * modulus)
    return _fold(ds, _type_bits, modulus, 4 * modulus)


def generic_types(ds: IndexSetDescriptor, modulus: int) -> tuple[int, list]:
    """How many residues r mod modulus (a multiple of every modulus in ds)
    have their generic type, r at neither a square nor a power of two,
    inside ds; and ds with every descriptor nested inside it."""
    generic = _tile(0b0001, 4, 4 * modulus)
    return (_type_bits(ds, modulus) & generic).bit_count(), list(_parts(ds))


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
    start = tail_types(seq).settle
    if start >= horizon:
        return
    masks = evaluate_range(seq, horizon)
    outside = 0
    for v, positions in enumerate(masks):
        if not good_mask >> v & 1:
            outside |= positions
    outside >>= start + 1
    if outside:
        k = start + (outside & -outside).bit_length()
        value = next(v for v, positions in enumerate(masks) if positions >> k & 1)
        raise AssertionError(
            f"tail analysis claimed eventual membership, but position {k} "
            f"takes value {value} outside mask {good_mask:#x}")
