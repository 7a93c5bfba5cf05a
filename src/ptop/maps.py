"""Subspaces and maps between spaces.

The trace value of a subset A of Y is the best value among all subsets of
the ambient set that cut down to A; on finite ground sets that supremum
is attained, so it is computed as a maximum.  Equipping Y with its trace
gives a space again, the inclusion of Y is always continuous for it, and
continuity composes; all three facts are machine-checked in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PSpace, WeightTable, _check_table, _pspace, _subset_fold, as_pspace
# Unused here; benchmarks/spans.py patches this name in this namespace.
from .core import verify_pairwise  # noqa: F401
from .errors import DimensionMismatch, InvalidArgument, PointOutOfRange
from .masks import _collection, _expect, _index, _name, bits, check_ground_size, check_mask


@dataclass(frozen=True)
class PointMap:
    """A total function between finite ground sets; ``image[x]`` is f(x)."""

    domain_n: int
    codomain_n: int
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain_n", check_ground_size(self.domain_n))
        object.__setattr__(self, "codomain_n", check_ground_size(self.codomain_n))
        image = _collection(self.image, "image")
        object.__setattr__(self, "image", tuple(_index(y, "image") for y in image))
        if len(self.image) != self.domain_n:
            raise InvalidArgument(
                f"map on {self.domain_n} points needs {self.domain_n} images, "
                f"got {len(self.image)}"
            )
        for x, y in enumerate(self.image):
            if not 0 <= y < self.codomain_n:
                raise PointOutOfRange(
                    f"image {_name(y)} of point {x} outside ground set of size {self.codomain_n}"
                )


def identity_map(n: int) -> PointMap:
    n = check_ground_size(n)
    return PointMap(n, n, tuple(range(n)))


def preimage(f: PointMap, b: int) -> int:
    """Mask of domain points whose image lies in ``b``."""
    _expect(f, PointMap, "a point map")
    check_mask(b, f.codomain_n)
    return sum(1 << x for x, y in enumerate(f.image) if b >> y & 1)


def compose(f: PointMap, g: PointMap) -> PointMap:
    """The map applying ``f`` first, then ``g``."""
    _expect(f, PointMap, "a point map")
    _expect(g, PointMap, "a point map")
    if f.codomain_n != g.domain_n:
        raise DimensionMismatch(
            f"cannot compose: first map lands in {f.codomain_n} points, "
            f"second starts from {g.domain_n}"
        )
    return PointMap(f.domain_n, g.codomain_n, tuple(g.image[y] for y in f.image))


def inclusion_map(y: int, n: int) -> PointMap:
    """The inclusion of the subspace ``y``, points renumbered in mask order."""
    n = check_ground_size(n)
    check_mask(y, n)
    return PointMap(y.bit_count(), n, tuple(bits(y)))


def subspace(p: WeightTable, y: int) -> PSpace:
    """The subspace on the points of ``y``, carrying the trace of ``p``.

    Ground size is ``|y|`` with points renumbered by :func:`~ptop.masks.compress`,
    so point order is preserved.  The table, viewed as a 2 x ... x 2 cube
    whose axis n-1-i is point i, is maximised over the axes of the points
    outside ``y``; flattening what is left in C order lists the trace in
    compressed-mask order, in O(2^n).  Zeros come out as +0.0, so taking
    ``y`` to be the full mask returns ``p``'s table with -0.0 read as 0.0.
    A table that is no :class:`PSpace` is checked by :func:`as_pspace` first.
    """
    p = as_pspace(p)
    check_mask(y, p.n)
    cube = p._array().reshape((2,) * p.n)
    outside = tuple(p.n - 1 - i for i in range(p.n) if not y >> i & 1)
    return _pspace(cube.max(axis=outside).ravel() + 0.0)


def continuity_witness(f: PointMap, p: WeightTable, q: WeightTable) -> int | None:
    """The smallest codomain mask violating continuity, or None if continuous.

    ``f`` is continuous from ``p`` to ``q`` when every codomain subset's
    value is matched or beaten by the value of its preimage.  Comparison
    is exact, over the 2^codomain subsets in ascending mask order.  The
    preimages of all of them come from one hull table, the OR of the
    preimages of their points, so the whole check is O(2^codomain).
    """
    _expect(f, PointMap, "a point map")
    _check_table(p)
    _check_table(q)
    if f.domain_n != p.n or f.codomain_n != q.n:
        raise DimensionMismatch(
            f"map {f.domain_n}->{f.codomain_n} does not connect spaces "
            f"on {p.n} and {q.n} points"
        )
    point_pre = [0] * q.n
    for x, y in enumerate(f.image):
        point_pre[y] |= 1 << x
    bad = p._array()[_subset_fold(point_pre, np.bitwise_or, 0)] < q._array()
    first = int(np.argmax(bad))
    return first if bad[first] else None


def is_pcontinuous(f: PointMap, p: WeightTable, q: WeightTable) -> bool:
    """True when ``f`` is continuous from ``p`` to ``q``."""
    return continuity_witness(f, p, q) is None
