"""Bitmask kernel for subsets of a finite ground set {0, ..., n-1}.

Bit i of a mask is set exactly when point i belongs to the subset, which
fixes a canonical point ordering: file formats and examples are bit-exact.
The shared argument checks live here too: ground sizes, masks, real numbers,
probabilities and object kinds, and :func:`_name`, which names a value in
every message of the package.
All functions here are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numbers
import operator
from typing import Iterator

import numpy as np

from .errors import (
    CapExceeded,
    InvalidArgument,
    MaskOutOfRange,
    NotASubset,
    ProbabilityOutOfRange,
)

# The one ground-size cap. Tables above 2^20 entries stop being
# desk-scale even for the O(n 2^n) decision and completion; individual
# operations document tighter caps of their own.
N_MAX = 20


def _index(value, what: str) -> int:
    """``value`` as an int, through ``operator.index``: numpy integers pass, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{what} must be an integer, got {_name(value)}") from None


def _name(value) -> str:
    """``repr(value)`` for a message; a number too long for repr is an int in hex, or else named by its type."""
    try:
        return repr(value)
    except ValueError:  # more digits than CPython converts
        return hex(value) if isinstance(value, int) else f"<{type(value).__name__} too long to print>"


def _collection(values, what: str):
    """``values`` as a sized collection: plain lists, tuples and sets as they are, other iterables as a tuple.

    A ``values`` that is not iterable raises :class:`InvalidArgument`, naming it as ``what``.
    """
    if type(values) in (list, tuple, set, frozenset):  # the common types skip the copy
        return values
    try:
        return tuple(values)
    except TypeError:
        raise InvalidArgument(f"{what} must be iterable, got {_name(values)}") from None


def _expect(obj, cls: type, what: str) -> None:
    """Raise :class:`InvalidArgument` unless ``obj`` is a ``cls``, named ``what`` ("a cover")."""
    if not isinstance(obj, cls):
        raise InvalidArgument(f"expected {what}, got {_name(obj)}")


def check_ground_size(n: int) -> int:
    """``n`` as a plain int, when it is a ground size in [0, N_MAX]; bools and numpy integers pass."""
    if type(n) is not int:  # plain ints skip the call
        n = _index(n, "ground size")
    if n < 0:
        raise MaskOutOfRange(f"ground size must be non-negative, got {_name(n)}")
    if n > N_MAX:
        raise CapExceeded(f"ground size {_name(n)} exceeds cap {N_MAX}")
    return n


def check_mask(mask: int, n: int) -> None:
    if type(mask) is not int:  # build checks every entry: plain ints skip the call
        mask = _index(mask, "mask")
    if not 0 <= mask < (1 << n):
        raise MaskOutOfRange(f"mask {_name(mask)} out of range for ground size {n}")


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
        raise InvalidArgument(f"{what} must be a real number, got {_name(q)}")
    try:
        float(q)
    except OverflowError:
        raise ProbabilityOutOfRange(f"{what} {_name(q)} is beyond the float range") from None


def check_probability(q: float, what: str) -> None:
    """Raise :class:`ProbabilityOutOfRange`, naming ``q`` as ``what``, unless 0 <= q <= 1.

    A ``q`` that is no real number raises :class:`InvalidArgument` instead.
    """
    _check_real(q, what)
    if not 0.0 <= q <= 1.0:
        raise ProbabilityOutOfRange(f"{what} {_name(q)} not in [0, 1]")


def full_mask(n: int) -> int:
    return (1 << check_ground_size(n)) - 1


def bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits, lowest first.

    A negative mask has endless set bits, so it raises :class:`MaskOutOfRange`.
    """
    if type(mask) is not int:  # plain ints skip the call
        mask = _index(mask, "mask")
    if mask < 0:
        raise MaskOutOfRange(f"mask {_name(mask)} is negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def compress(a: int, y: int) -> int:
    """Re-index a subset ``a`` of ``y`` onto the ground set {0, ..., |y|-1}.

    The k-th lowest set bit of ``y`` maps to bit k of the result, so the
    relative order of points is preserved; bijective from the subsets of
    ``y`` onto the masks below 2^|y|.
    """
    a, y = _index(a, "mask"), _index(y, "mask")
    if a & ~y:
        raise NotASubset(f"mask {_name(a)} is not contained in {_name(y)}")
    return sum(1 << k for k, i in enumerate(bits(y)) if a >> i & 1)
