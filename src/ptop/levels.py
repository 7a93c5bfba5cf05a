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

from .core import PSpace, WeightTable, _check_table, _mark, _pspace, as_pspace, prob
# Unused here; benchmarks/spans.py patches this name in this namespace.
from .core import verify_pairwise  # noqa: F401
from .errors import ChainNotNested, InvalidArgument, MissingBase, ProbabilityOutOfRange
from .masks import _check_real, _collection, _expect, _name, check_ground_size, check_probability


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

        Checks, in this order: the ground size, the levels, then each
        member's masks and closedness (:class:`InvalidArgument`,
        :class:`MaskOutOfRange`, :class:`NotATopology`), then nesting
        (:class:`ChainNotNested`), then the base.  The mask reader
        :func:`~ptop.core._mark` reads each member once and decides each
        block of rows once marked, O(k 2^n) for k members, so reading stops
        at the first block holding a non-topology.  Its error is that of
        checking the members one at a time: an earlier member that is no
        topology is named before a later member's build error (a non-integer
        before a mask out of range, the least such mask before the
        greatest).  One comparison of neighbouring rows then decides nesting.
        """
        self._member_tables()

    def _member_tables(self) -> tuple[int, tuple, np.ndarray]:
        """Validate the chain; return the ground size, the levels and the members as stacked boolean tables.

        The levels and members are read once, so one-shot iterables pass;
        the size comes back a plain int, the levels as the tuple checked.
        """
        n = check_ground_size(self.n)
        levels = tuple(_collection(self.levels, "levels"))  # indexed below, which a set is not
        topologies = tuple(_collection(self.topologies, "topologies"))  # sliced into blocks
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
        _, tables = _mark(n, topologies, "chain member is not a topology")
        if (tables[1:] & ~tables[:-1]).any():
            raise ChainNotNested("each topology must contain the next one")
        if self.base is not None:
            _check_real(self.base, "base")
            if not 0.0 <= self.base < levels[0]:
                raise ProbabilityOutOfRange(f"base {_name(self.base)} must lie in [0, {_name(levels[0])})")
        return n, levels, tables


def level_cut(p: WeightTable, q: float) -> frozenset[int]:
    """The subsets whose value is at least q, of any table; a classical topology when ``p`` is a space."""
    _check_table(p)
    check_probability(q, "threshold")
    return frozenset(np.nonzero(p._array() >= q)[0].tolist())


def q_open(p: WeightTable, a: int, q: float) -> bool:
    """The at-most convention: subset ``a`` is q-open when its value is <= q."""
    value = prob(p, a)
    check_probability(q, "threshold")
    return value <= q


def decompose(p: WeightTable) -> LevelChain:
    """Split a space into its chain of level cuts at the distinct values.

    Every distinct nonzero value becomes a level (even when adjacent cuts
    coincide as sets); the value 0, when present, becomes the base, since
    it marks exactly the subsets in no cut other than the trivial one.
    Round trip is exact: ``reconstruct(decompose(p))`` equals ``p``.  A
    table that is no :class:`PSpace` is checked by :func:`as_pspace` first.

    One stable argsort of the table gives the levels and every cut: the
    masks valued at least q are a suffix of the sorted order.  The top cut
    is made from its masks, and each lower cut as the cut above it joined
    with the masks valued exactly at its level, so the work is one copy per
    cut member, the cuts share one int object per mask, and no 2^n row is
    made per level.  On a shared 2-core VM, a 16-level space at n = 20
    with 3.1 M cut members takes 0.17-0.25 s.
    """
    p = as_pspace(p)
    t = p._array()
    order = np.argsort(t, kind="stable")  # np.unique would import numpy.ma on its first call
    values = t[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first & (values != 0.0))
    levels = tuple(values[starts].tolist())
    masks = order.tolist()
    cut, cuts, end = frozenset(), [], values.size
    for start in reversed(starts.tolist()):
        cut = cut.union(masks[start:end])
        cuts.append(cut)
        end = start
    base = 0.0 if values[0] == 0.0 else None
    return LevelChain(p.n, levels, tuple(cuts[::-1]), base)


def reconstruct(chain: LevelChain) -> PSpace:
    """Rebuild the space whose value at A is the highest level whose cut holds A.

    Subsets in no listed topology receive the base value; if any exist and
    the base is absent, :class:`MissingBase` is raised, naming the lowest
    such subset.  The result always passes the pairwise verifier: nesting
    plus per-level closure gives the pair inequalities, and the last level
    being 1 gives the boundary axiom.

    Validation (see :meth:`LevelChain.validate`) dominates the cost, O(k 2^n)
    for k members; the table is then filled by :func:`_level_table` and
    converted to the space's tuple once.  The chain of the 16-level n = 20
    space in :func:`decompose` takes 0.20-0.31 s.
    """
    _expect(chain, LevelChain, "a level chain")
    n, levels, tables = chain._member_tables()
    if chain.base is None and not tables[0].all():
        uncovered = int(np.argmin(tables[0]))  # nesting makes tables[0] the union
        raise MissingBase(f"subset {uncovered} is in no topology and no base is set")
    base = 0.0 if chain.base is None else chain.base
    return _pspace(_level_table(n, levels, tables, base))


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
