"""Level-cut structure of a space.

For any threshold q the cut {A : p(A) >= q} is a classical topology: the
union and intersection inequalities keep every cut closed, and the
boundary axiom puts the empty and full subsets in every cut.  A space is
therefore the same data as a shrinking chain of topologies indexed by its
distinct values, and :func:`decompose` / :func:`reconstruct` convert
between the two forms bit-exactly.

Two threshold conventions coexist on purpose and are named apart:
:func:`level_cut` collects subsets with value at least q (the cut that
yields topologies and matches the cover notion), while :func:`q_open`
answers the literal at-most-q openness predicate, under which a set only
becomes more open as q grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PSpace, _check_table, _check_topologies, _family_mask, _pspace, prob
# Unused here; benchmarks/spans.py patches this name in this namespace.
from .core import verify_pairwise  # noqa: F401
from .errors import (
    ChainNotNested,
    InvalidArgument,
    MissingBase,
    ProbabilityOutOfRange,
    PtopError,
)
from .masks import _check_real, _collection, check_ground_size, check_mask, check_probability


@dataclass(frozen=True)
class LevelChain:
    """Strictly increasing levels paired with a shrinking chain of topologies.

    ``levels[-1]`` is always 1.  ``base`` is the value for subsets in no
    listed topology; it is None exactly when the first topology is the
    whole powerset, and otherwise satisfies 0 <= base < levels[0].
    """

    n: int
    levels: tuple[float, ...]
    topologies: tuple[frozenset[int], ...]
    base: float | None

    def validate(self) -> None:
        """Raise unless the chain is well formed.

        Checks, in this order: the levels, then each member's masks and
        closedness (:class:`InvalidArgument`, :class:`MaskOutOfRange`,
        :class:`NotATopology`), then nesting (:class:`ChainNotNested`), then
        the base.  The error is that of checking the members one at a time,
        first member first.  Each member becomes one boolean table over the
        2^n subsets, stacked in rows, until the first member that fails to
        build.  The rows built close a block at a time, in O(k 2^n) for k
        members, and the first one that is no topology is named, with its
        defect from the O(n 2^n) count of :func:`~ptop.core.topology_defect`;
        only when none is does the build error go on.  One comparison of
        neighbouring rows then decides nesting.
        """
        self._member_tables()

    def _member_tables(self) -> tuple[tuple, np.ndarray]:
        """Validate the chain; return the levels checked and the members as stacked boolean tables.

        The levels are returned as the tuple that was checked, so a
        one-shot iterable is read once.
        """
        check_ground_size(self.n)
        levels = tuple(_collection(self.levels, "levels"))  # indexed below, which a set is not
        topologies = _collection(self.topologies, "topologies")
        if not levels:
            raise InvalidArgument("a level chain needs at least one level")
        if len(levels) != len(topologies):
            raise InvalidArgument("levels and topologies differ in length")
        for i, q in enumerate(levels):
            check_probability(q, "level")
            if i and not q > levels[i - 1]:
                raise InvalidArgument("levels must be strictly increasing")
        if levels[-1] != 1.0:
            raise InvalidArgument("the last level must be 1")
        prefix = "chain member is not a topology"
        tables = np.empty((len(topologies), 1 << self.n), dtype=bool)
        built = 0
        for topo in topologies:
            try:
                tables[built] = _family_mask(self.n, topo)
            except PtopError:
                break
            built += 1
        _check_topologies(self.n, tables[:built], prefix)  # an earlier member's defect comes first
        if built < len(topologies):
            _family_mask(self.n, topo)  # the member that failed: its build error again, outside the handler
        if (tables[1:] & ~tables[:-1]).any():
            raise ChainNotNested("each topology must contain the next one")
        if self.base is not None:
            _check_real(self.base, "base")
            if not 0.0 <= self.base < levels[0]:
                raise ProbabilityOutOfRange(f"base {self.base!r} must lie in [0, {levels[0]!r})")
        return levels, tables


def level_cut(p: PSpace, q: float) -> frozenset[int]:
    """The subsets whose value is at least q; always a classical topology."""
    check_probability(q, "threshold")
    return frozenset(np.nonzero(p._array() >= q)[0].tolist())


def q_open(p: PSpace, a: int, q: float) -> bool:
    """The at-most convention: subset ``a`` is q-open when its value is <= q."""
    check_mask(a, p.n)
    check_probability(q, "threshold")
    return prob(p, a) <= q


def decompose(p: PSpace) -> LevelChain:
    """Split a space into its chain of level cuts at the distinct values.

    Every distinct nonzero value becomes a level (even when adjacent cuts
    coincide as sets); the value 0, when present, becomes the base, since
    it marks exactly the subsets in no cut other than the trivial one.
    Round trip is exact: ``reconstruct(decompose(p))`` equals ``p``.

    The levels come from one sorted copy of the table, and each cut is
    then one :func:`level_cut`, so one 2^n boolean row is held at a time
    beside the frozensets.  A value outside [0, 1], NaN included, raises
    :class:`ProbabilityOutOfRange`, naming the first such level in
    ascending order, NaN last.
    """
    _check_table(p)
    values = np.sort(p._array())  # np.unique would import numpy.ma on its first call
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    levels = tuple(values[first & (values != 0.0)].tolist())
    base = 0.0 if values[0] == 0.0 else None
    return LevelChain(p.n, levels, tuple(level_cut(p, q) for q in levels), base)


def reconstruct(chain: LevelChain) -> PSpace:
    """Rebuild the space whose value at A is the highest level whose cut holds A.

    Subsets in no listed topology receive the base value; if any exist and
    the base is absent, :class:`MissingBase` is raised, naming the lowest
    such subset.  The result always passes the pairwise verifier: nesting
    plus per-level closure gives the pair inequalities, and the last level
    being 1 gives the boundary axiom.

    Validation (see :meth:`LevelChain.validate`) dominates the cost,
    O(k 2^n) for k members.  The table is then filled by
    :func:`_level_table` and converted to the space's tuple once.
    """
    if not isinstance(chain, LevelChain):
        raise InvalidArgument(f"expected a level chain, got {chain!r}")
    levels, tables = chain._member_tables()
    if chain.base is None and not tables[0].all():
        uncovered = int(np.argmin(tables[0]))  # nesting makes tables[0] the union
        raise MissingBase(f"subset {uncovered} is in no topology and no base is set")
    base = 0.0 if chain.base is None else chain.base
    return _pspace(chain.n, _level_table(chain.n, levels, tables, base))


def _level_table(n: int, levels, members, base: float) -> np.ndarray:
    """The float64 table of a nested chain: ``base``, overwritten by each level on its member.

    ``members`` yields one boolean table per level, in the levels' rising
    order, so the highest level holding A is the one left at A.  One numpy
    assignment per level, bit-exact (a -0.0 level or base stays -0.0).
    """
    table = np.full(1 << n, base, dtype=np.float64)
    for q, member in zip(levels, members):
        table[member] = q
    return table
