"""Seeded random generation of valid spaces.

Soundness by construction: draw random classical topologies as closures
of random subbases, intersect them into a shrinking chain (intersections
of topologies are topologies), attach strictly increasing random levels
ending at 1, and rebuild the table from the chain.  Every output passes
the verifiers, and identical (n, k, seed) triples give bit-identical
tables on every platform.

Determinism contract, pinned so seeds can be shared across tools:

* Generator: SplitMix64. State advances by 0x9E3779B97F4A7C15 modulo 2^64;
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

from .core import PSpace, _open_sets
from .levels import LevelChain, reconstruct
from .masks import check_ground_size, check_mask, full_mask

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass
class SplitMix64:
    """The SplitMix64 pseudorandom generator over exact 64-bit arithmetic."""

    state: int

    def __post_init__(self):
        self.state &= _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-enough integer in [0, bound): next64 reduced modulo bound."""
        return self.next64() % bound

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * 2.0**-53


def topology_closure(n: int, seeds) -> frozenset[int]:
    """Smallest classical topology on n points containing all ``seeds``.

    Its open sets are those that hold, with each point x, the minimal
    neighbourhood N(x): the intersection of the full set and every seed
    containing x.  O(n |seeds|) for the neighbourhoods, then O(2^n).
    """
    seeds = list(seeds)
    for seed in seeds:
        check_mask(seed, n)
    nbhd = []
    for x in range(n):
        nbhd.append(full_mask(n))
        for seed in seeds:
            if seed >> x & 1:
                nbhd[x] &= seed
    return frozenset(np.nonzero(_open_sets(n, nbhd))[0].tolist())


def random_topology(n: int, rng: SplitMix64) -> frozenset[int]:
    """Closure of a random subbasis of up to n+1 subsets."""
    count = rng.below(n + 2)
    seeds = [rng.below(1 << n) for _ in range(count)]
    return topology_closure(n, seeds)


def random_pspace(n: int, k: int, seed: int) -> PSpace:
    """A seeded random valid space with up to k+1 distinct values.

    Deterministic per (n, k, seed); every output passes the verifiers.
    """
    check_ground_size(n)
    if k < 1:
        raise ValueError(f"level count must be at least 1, got {k}")
    rng = SplitMix64(seed)
    chain_topologies: list[frozenset[int]] = []
    acc: frozenset[int] | None = None
    for _ in range(k):
        topo = random_topology(n, rng)
        acc = topo if acc is None else acc & topo
        chain_topologies.append(acc)
    interior: set[float] = set()
    while len(interior) < k - 1:
        u = rng.unit()
        if 0.0 < u < 1.0:
            interior.add(u)
    levels = tuple(sorted(interior)) + (1.0,)
    base_draw = rng.unit()  # always consumed, keeps the stream position fixed
    base: float | None = base_draw * levels[0]
    if base >= levels[0]:  # guard the rounding edge of the scaling
        base = 0.0
    if len(chain_topologies[0]) == 1 << n:
        base = None
    return reconstruct(LevelChain(n, levels, tuple(chain_topologies), base))
