"""Seeded random generation of valid spaces.

Soundness by construction: draw random classical topologies as closures
of random subbases, intersect them into a shrinking chain (intersections
of topologies are topologies), attach strictly increasing random levels
ending at 1, and rebuild the table from the chain.  Every output passes
the verifiers, and identical (n, k, seed) triples give bit-identical
tables on every platform.  :func:`random_pspace` keeps the chain as
boolean tables throughout: a block of subbases at a time, the mask reader
that also serves the level-chain check (:func:`~ptop.core._mark`) returns
their rows, which close together, each closure is ANDed into the running
intersection, and the table is filled from it by the same helper as
:func:`~ptop.levels.reconstruct`, with no frozenset built and no member
closed twice.

Determinism contract, pinned so seeds can be shared across tools:

* Generator: SplitMix64, seeded with any integer (numpy integers pass)
  taken modulo 2^64. State advances by 0x9E3779B97F4A7C15 modulo 2^64;
  output mixes the state with xor-shifts 30/27/31 and multipliers
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
* ``below(k)`` reduces the next 64-bit output modulo k.
* ``unit()`` is ``(next64() >> 11) * 2**-53``, uniform in [0, 1).
* Draw order in :func:`random_pspace`: the k topologies in chain order
  (subbasis count, then that many masks, each one ``below``), then unit
  draws for the k-1 interior levels (redrawing collisions and zeros),
  then exactly one unit draw for the base, discarded when unused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PSpace, _blocks, _closure, _mark, _pspace
from .errors import CapExceeded, InvalidArgument
from .levels import _level_table
# Unused here; benchmarks/spans.py patches this name in this namespace.
from .levels import reconstruct  # noqa: F401
from .masks import N_MAX, _index, _name, check_ground_size

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass
class SplitMix64:
    """The SplitMix64 pseudorandom generator over exact 64-bit arithmetic."""

    state: int

    def __post_init__(self):
        self.state = _index(self.state, "seed") & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-enough integer in [0, bound): next64 reduced modulo bound.

        ``bound`` must be a positive integer; otherwise :class:`InvalidArgument`
        is raised and the state does not advance.
        """
        if type(bound) is not int:  # _subbasis calls this in its loop: plain ints skip the call
            bound = _index(bound, "bound")
        if bound < 1:
            raise InvalidArgument(f"bound must be at least 1, got {_name(bound)}")
        return self.next64() % bound

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * 2.0**-53


def topology_closure(n: int, seeds) -> frozenset[int]:
    """Smallest classical topology on n points containing all ``seeds``.

    Its open sets are those that hold, with each point x, the minimal
    neighbourhood N(x): the intersection of the full set and every seed
    containing x.  O(2^n) after marking the seeds, through
    :func:`~ptop.core._closure`.
    """
    return frozenset(np.flatnonzero(_closure(*_mark(n, (seeds,)))).tolist())


def _subbasis(n: int, rng: SplitMix64) -> list[int]:
    """Draw a subbasis: its size in [0, n+1], then that many masks, each one ``below``."""
    return [rng.below(1 << n) for _ in range(rng.below(n + 2))]


def _chain(n: int, subbases: list[list[int]]):
    """Yield the running intersections of the subbases' closures, in order.

    A block of subbases at a time (:func:`~ptop.core._blocks`), the mask
    reader (:func:`~ptop.core._mark`) returns their rows and they close
    together, so only one block's stack is held; one boolean table is
    yielded per subbasis, updated in place.
    """
    opens = np.ones(1 << n, dtype=bool)
    for block in _blocks(n, len(subbases)):
        for closed in _closure(*_mark(n, subbases[block])):
            opens &= closed
            yield opens


def random_pspace(n: int, k: int, seed: int) -> PSpace:
    """A seeded random valid space with up to k+1 distinct values.

    Deterministic per (n, k, seed); every output passes the verifiers.
    The level count is capped at 2^N_MAX, the most distinct values a table
    holds: a larger k raises :class:`CapExceeded` before any draw.
    """
    n = check_ground_size(n)
    if (k := _index(k, "level count")) < 1:
        raise InvalidArgument(f"level count must be at least 1, got {_name(k)}")
    if k > 1 << N_MAX:
        raise CapExceeded(f"level count {_name(k)} exceeds cap 2^{N_MAX}")
    rng = SplitMix64(seed)
    subbases = [_subbasis(n, rng) for _ in range(k)]
    interior: set[float] = set()
    while len(interior) < k - 1:
        u = rng.unit()
        if u > 0.0:
            interior.add(u)
    levels = tuple(sorted(interior)) + (1.0,)
    base_draw = rng.unit()  # always consumed, keeps the stream position fixed
    base = base_draw * levels[0]  # below levels[0]: unit() < 1 and every level is normal
    # When the first topology is the whole powerset, every entry is
    # overwritten by a level and the base goes unused.
    return _pspace(_level_table(n, levels, _chain(n, subbases), base))
