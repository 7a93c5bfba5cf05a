"""Covers, compactness and connectedness at a probability threshold.

A q-cover is a family of subsets covering the ground set, every member of
which has value at least q.  Compactness at q is trivially true on a
finite ground set (any cover is already finite), so the interesting
computational companion is exact minimal subcover extraction.  A space is
q-connected when no two-block partition of the ground set has both blocks
nonempty with value at least q; the connectivity threshold is the largest
q at which such a partition exists, so the space is q-connected exactly
for q strictly above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import WeightTable, _check_table
from .errors import DimensionMismatch, DuplicateMask, NotACover
from .masks import _check_real, _collection, _expect, _index, bits, check_ground_size, check_mask, full_mask


@dataclass(frozen=True)
class Cover:
    """A duplicate-free list of subset masks used as a candidate cover."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", check_ground_size(self.n))
        members = _collection(self.members, "cover members")
        object.__setattr__(self, "members", tuple(_index(m, "cover member") for m in members))
        seen = set()
        for m in self.members:
            check_mask(m, self.n)
            if m in seen:
                raise DuplicateMask(f"cover member {m} listed twice")
            seen.add(m)

    def union(self) -> int:
        out = 0
        for m in self.members:
            out |= m
        return out


@dataclass(frozen=True)
class CoverDefect:
    """Why a family is not a q-cover.

    ``uncovered-point`` carries the lowest point missed by the union;
    ``low-probability`` carries the smallest member mask below threshold.
    """

    kind: Literal["uncovered-point", "low-probability"]
    point: int | None = None
    mask: int | None = None


def qcover_witness(p: WeightTable, cover: Cover, q: float) -> CoverDefect | None:
    """None when ``cover`` is a q-cover of ``p``'s ground set, else the defect.

    Coverage is checked before member values, so an uncovered point wins
    when both conditions fail.
    """
    _check_table(p)
    _expect(cover, Cover, "a cover")
    if cover.n != p.n:
        raise DimensionMismatch(
            f"cover on {cover.n} points used with a space on {p.n} points"
        )
    _check_real(q, "threshold")
    missed = full_mask(p.n) & ~cover.union()
    if missed:
        return CoverDefect("uncovered-point", point=next(bits(missed)))
    for m in sorted(cover.members):
        if p.table[m] < q:
            return CoverDefect("low-probability", mask=m)
    return None


def is_qcover(p: WeightTable, cover: Cover, q: float) -> bool:
    return qcover_witness(p, cover, q) is None


@dataclass(frozen=True)
class CompactnessVerdict:
    compact: bool
    rationale: str

    def __bool__(self) -> bool:
        return self.compact


def is_qcompact(p: WeightTable, q: float) -> CompactnessVerdict:
    """Always compact: a cover of a finite ground set is its own finite subcover.

    The operation exists for API completeness; the verdict carries the
    machine-readable rationale code ``finite-trivial``.
    """
    _check_table(p)
    _check_real(q, "threshold")
    return CompactnessVerdict(True, "finite-trivial")


def min_subcover(cover: Cover) -> Cover:
    """A minimum-cardinality sub-list of members whose union is the full set.

    The smallest sorted index tuple of minimum size wins.  One exact test
    decides whether at most ``left`` members from index ``lo`` on complete
    a covered set: it branches on the uncovered point with the fewest such
    holders, since one of them must be picked, and it remembers the states
    that failed.  The test finds the minimum size k, counting up from 0;
    then each position takes the first index whose pick still passes it
    with the picks after it drawn from above that index.  Holders are
    per-point bitsets over member indices, made in one numpy pass.  The
    cost is exponential in the answer size; the recursion is at most as
    deep as the answer (<= n).  On a shared 2-core VM, 150 covers of 33-40
    members of 1-4 points on 20 points take 0.12-0.19 s in all (the
    slowest 4-12 ms), 1,502 members with a 2-member answer 0.22 ms, and
    4-9 members on 8 points about 50 us, a fifth of it the numpy pass.
    Raises :class:`NotACover` when the members do not cover.
    """
    _expect(cover, Cover, "a cover")
    full = full_mask(cover.n)
    members = cover.members
    if missed := full & ~cover.union():
        raise NotACover(f"members do not cover point {next(bits(missed))}")
    held = np.array(members, dtype=np.int64) & 1 << np.arange(cover.n)[:, None] != 0
    # holders[x] has bit j set when member j holds point x
    holders = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(held, axis=1, bitorder="little")
    ]
    widest = int(held.sum(axis=0).max(initial=1))
    failed: dict[tuple[int, int], int] = {}  # (covered, lo) -> most picks found too few

    def fits(covered: int, lo: int, left: int) -> tuple[int, ...] | None:
        """At most ``left`` indices >= ``lo`` whose members complete ``covered``, or None."""
        if covered == full:
            return ()
        missing = full & ~covered
        if missing.bit_count() > left * widest or failed.get((covered, lo), -1) >= left:
            return None
        scarce = min((holders[x] >> lo for x in bits(missing)), key=int.bit_count)
        for j in bits(scarce):
            if (rest := fits(covered | members[lo + j], lo, left - 1)) is not None:
                return (lo + j, *rest)
        failed[covered, lo] = left
        return None

    size = 0
    while (witness := fits(0, 0, size)) is None:
        size += 1
    picks, covered, lo = [], 0, 0
    while witness:
        # The witness's least index passes, so only the indices below it are
        # tried; a pick adding no point would leave a smaller cover.
        j, *rest = sorted(witness)
        for i in range(lo, j):
            if covered | members[i] != covered and (
                found := fits(covered | members[i], i + 1, len(rest))
            ) is not None:
                j, rest = i, found
                break
        picks.append(members[j])
        covered |= members[j]
        lo, witness = j + 1, rest
    return Cover(cover.n, tuple(picks))


def disconnection_witness(p: WeightTable, q: float) -> tuple[int, int] | None:
    """A two-block partition with both blocks nonempty at value >= q, or None.

    The returned witness is the smallest qualifying mask containing point 0,
    paired with its complement.  Scans 2^(n-1) partitions.  Any real q
    is taken, the -inf of :func:`connectivity_threshold` included.
    """
    _check_table(p)
    _check_real(q, "threshold")
    full = full_mask(p.n)
    t = p._array()
    a = np.arange(1, full, 2, dtype=np.int64)
    hits = a[(t[a] >= q) & (t[full ^ a] >= q)]
    return (int(hits[0]), full ^ int(hits[0])) if hits.size else None


def is_qconnected(p: WeightTable, q: float) -> bool:
    """True when no partition into two nonempty blocks has both values >= q."""
    return disconnection_witness(p, q) is None


def connectivity_threshold(p: WeightTable) -> float:
    """Largest q admitting a disconnecting partition; -inf when none exists.

    The space is q-connected exactly for q strictly above the returned
    value; at the threshold itself the maximizing partition still
    disconnects.  Ground sets with at most one point have no partitions
    and give -inf (connected at every q); a NaN in a partition gives NaN.
    """
    _check_table(p)
    full = full_mask(p.n)
    t = p._array()
    a = np.arange(1, full, 2, dtype=np.int64)
    return float(np.minimum(t[a], t[full ^ a]).max(initial=-np.inf))
