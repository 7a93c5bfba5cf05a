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

from .core import PSpace, _topology_table, prob
# Unused here; benchmarks/spans.py patches this name in this namespace.
from .core import verify_pairwise  # noqa: F401
from .errors import ChainNotNested, InvalidArgument, MissingBase, ProbabilityOutOfRange
from .masks import check_ground_size, check_mask, check_probability


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

        Checks, in this order: the levels, then each member's mask range
        and closedness (:class:`MaskOutOfRange`, :class:`NotATopology`),
        then nesting (:class:`ChainNotNested`), then the base.  Each member
        becomes one boolean table over the 2^n subsets, and closedness is
        decided on it in O(2^n) by comparing it with its closure, so a chain
        of k members costs O(k 2^n) plus one pass over its members; only a
        member that fails has its defect named, by the O(n 2^n) count of
        :func:`~ptop.core.topology_defect`.
        """
        self._member_tables()

    def _member_tables(self) -> list[np.ndarray]:
        """Validate the chain and return each member as a boolean table."""
        check_ground_size(self.n)
        if not self.levels:
            raise InvalidArgument("a level chain needs at least one level")
        if len(self.levels) != len(self.topologies):
            raise InvalidArgument("levels and topologies differ in length")
        for i, q in enumerate(self.levels):
            check_probability(q, "level")
            if i and not q > self.levels[i - 1]:
                raise InvalidArgument("levels must be strictly increasing")
        if self.levels[-1] != 1.0:
            raise InvalidArgument("the last level must be 1")
        tables = [
            _topology_table(self.n, topo, "chain member is not a topology")
            for topo in self.topologies
        ]
        for higher, lower in zip(tables, tables[1:]):
            if (lower & ~higher).any():
                raise ChainNotNested("each topology must contain the next one")
        if self.base is not None and not 0.0 <= self.base < self.levels[0]:
            raise ProbabilityOutOfRange(
                f"base {self.base!r} must lie in [0, {self.levels[0]!r})"
            )
        return tables


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
    """
    values = sorted(set(p.table))
    levels = tuple(v for v in values if v != 0.0)
    base = 0.0 if values and values[0] == 0.0 else None
    return LevelChain(p.n, levels, tuple(level_cut(p, q) for q in levels), base)


def reconstruct(chain: LevelChain) -> PSpace:
    """Rebuild the space whose value at A is the highest level whose cut holds A.

    Subsets in no listed topology receive the base value; if any exist and
    the base is absent, :class:`MissingBase` is raised, naming the lowest
    such subset.  The result always passes the pairwise verifier: nesting
    plus per-level closure gives the pair inequalities, and the last level
    being 1 gives the boundary axiom.

    Validation (see :meth:`LevelChain.validate`) dominates the cost,
    O(k 2^n) for k members; the table is then filled in one numpy
    assignment per level, bit-exactly (a -0.0 level or base stays -0.0).
    """
    tables = chain._member_tables()
    if chain.base is None and not tables[0].all():
        uncovered = int(np.argmin(tables[0]))  # nesting makes tables[0] the union
        raise MissingBase(f"subset {uncovered} is in no topology and no base is set")
    table = np.full(1 << chain.n, 0.0 if chain.base is None else chain.base, dtype=np.float64)
    for q, member in zip(chain.levels, tables):
        table[member] = q  # levels rise, so the highest level holding A wins
    return PSpace(chain.n, tuple(table.tolist()))
