"""Bitmask kernel for subsets of a finite ground set {0, ..., n-1}.

Bit i of a mask is set exactly when point i belongs to the subset, which
fixes a canonical point ordering: file formats and examples are bit-exact.
The shared argument checks live here too: ground sizes, masks, real numbers,
probabilities and object kinds.
All functions here are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numbers
import operator
import os
from typing import Iterator

import numpy as np

from .errors import (
    CapExceeded,
    InvalidArgument,
    MaskOutOfRange,
    NotASubset,
    ProbabilityOutOfRange,
    PtopError,
)

# Absolute ground-size cap. Tables above 2^20 entries stop being
# desk-scale even for the O(n 2^n) decision and completion; individual
# operations document tighter caps of their own.
N_MAX = 20


def max_ground_size() -> int:
    """Effective ground-size cap: N_MAX, lowered (never raised) by PTOP_MAX_N."""
    raw = os.environ.get("PTOP_MAX_N")
    if raw is None:
        return N_MAX
    try:
        value = int(raw)
    except ValueError:
        raise PtopError(f"PTOP_MAX_N must be an integer, got {raw!r}") from None
    return max(0, min(N_MAX, value))


def _index(value, what: str) -> int:
    """``value`` as an int, through ``operator.index``: numpy integers pass, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{what} must be an integer, got {value!r}") from None


def _digits(k: int) -> str:
    """``str(k)``, or ``k`` in hex when it is an int with more digits than str() converts."""
    try:
        return str(k)
    except ValueError:
        return hex(k)


def _collection(values, what: str):
    """``values`` as a sized collection: plain lists, tuples and sets as they are, other iterables as a tuple.

    A ``values`` that is not iterable raises :class:`InvalidArgument`, naming it as ``what``.
    """
    if type(values) in (list, tuple, set, frozenset):  # the common types skip the copy
        return values
    try:
        return tuple(values)
    except TypeError:
        raise InvalidArgument(f"{what} must be iterable, got {values!r}") from None


def _expect(obj, cls: type, what: str) -> None:
    """Raise :class:`InvalidArgument` unless ``obj`` is a ``cls``, named ``what`` ("a cover")."""
    if not isinstance(obj, cls):
        raise InvalidArgument(f"expected {what}, got {obj!r}")


def check_ground_size(n: int) -> int:
    """``n`` as a plain int, when it is a ground size in [0, max_ground_size()]; bools and numpy integers pass."""
    if type(n) is not int:  # plain ints skip the call
        n = _index(n, "ground size")
    if n < 0:
        raise MaskOutOfRange(f"ground size must be non-negative, got {_digits(n)}")
    cap = max_ground_size()
    if n > cap:
        raise CapExceeded(f"ground size {_digits(n)} exceeds cap {cap}")
    return n


def check_mask(mask: int, n: int) -> None:
    if type(mask) is not int:  # build checks every entry: plain ints skip the call
        mask = _index(mask, "mask")
    if not 0 <= mask < (1 << n):
        raise MaskOutOfRange(f"mask {_digits(mask)} out of range for ground size {n}")


def _check_real(q: float, what: str) -> None:
    """Raise :class:`InvalidArgument`, naming ``q`` as ``what``, unless ``q`` is a real number.

    Python and numpy real scalars pass, and so do 0-d real arrays; strings,
    None, complex numbers and arrays of one or more dimensions do not.  A
    real number beyond the float range, such as the int 2**1100, raises
    :class:`ProbabilityOutOfRange`, since no float can hold it.
    """
    if not isinstance(q, (float, int, numbers.Real)) and not (  # plain types skip the ABC check
        isinstance(q, np.ndarray) and q.ndim == 0 and q.dtype.kind in "biuf"
    ):
        raise InvalidArgument(f"{what} must be a real number, got {q!r}")
    try:
        float(q)
    except OverflowError:
        raise ProbabilityOutOfRange(f"{what} {_digits(q)} is beyond the float range") from None


def check_probability(q: float, what: str) -> None:
    """Raise :class:`ProbabilityOutOfRange`, naming ``q`` as ``what``, unless 0 <= q <= 1.

    A ``q`` that is no real number raises :class:`InvalidArgument` instead.
    """
    _check_real(q, what)
    if not 0.0 <= q <= 1.0:
        raise ProbabilityOutOfRange(f"{what} {q!r} not in [0, 1]")


def full_mask(n: int) -> int:
    return (1 << check_ground_size(n)) - 1


def _non_negative(mask: int) -> int:
    """``mask`` as an int, through :func:`_index`; :class:`MaskOutOfRange` when it is negative."""
    if type(mask) is not int:  # plain ints skip the call
        mask = _index(mask, "mask")
    if mask < 0:
        raise MaskOutOfRange(f"mask {_digits(mask)} is negative")
    return mask


def bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits, lowest first.

    A negative mask has endless set bits, so it raises :class:`MaskOutOfRange`.
    """
    mask = _non_negative(mask)
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` exactly once, ending with 0.

    A negative mask has endless submasks, so it raises :class:`MaskOutOfRange`.
    """
    mask = sub = _non_negative(mask)
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def is_partition(a: int, b: int, n: int) -> bool:
    """True when ``a`` and ``b`` are disjoint and together cover the ground set.

    Either side may be empty; whoever needs non-emptiness checks it separately.
    """
    n = check_ground_size(n)
    full = (1 << n) - 1
    check_mask(a, n)
    check_mask(b, n)
    return (a | b) == full and (a & b) == 0


def compress(a: int, y: int) -> int:
    """Re-index a subset ``a`` of ``y`` onto the ground set {0, ..., |y|-1}.

    The k-th lowest set bit of ``y`` maps to bit k of the result, so the
    relative order of points is preserved; bijective from the subsets of
    ``y`` onto the masks below 2^|y|.
    """
    a, y = _index(a, "mask"), _index(y, "mask")
    if a & ~y:
        raise NotASubset(f"mask {_digits(a)} is not contained in {_digits(y)}")
    return sum(1 << k for k, i in enumerate(bits(y)) if a >> i & 1)


def decompress(a: int, y: int) -> int:
    """Inverse of :func:`compress`: deposit bit k of ``a`` at the k-th bit of ``y``."""
    a, y = _index(a, "mask"), _index(y, "mask")
    if a >> y.bit_count():
        raise MaskOutOfRange(f"mask {_digits(a)} out of range for a subspace of size {y.bit_count()}")
    return sum(1 << i for k, i in enumerate(bits(y)) if a >> k & 1)
