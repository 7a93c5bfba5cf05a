"""Probability-of-openness tables on finite ground sets.

A table assigns every subset of {0, ..., n-1} a value in [0, 1], read as
the probability that the subset is open.  A table is a valid space when
the empty and full subsets sit at 1 and the value of any union or
intersection dominates the minimum value of the parts.  On a finite
ground set the arbitrary-family axioms reduce to their two-set forms:
the two-set inequality gives the k-set inequality by induction on k, and
:func:`verify_exhaustive` re-checks that reduction by enumerating every
family outright.

A space is fixed by its n x n separation matrix
T(x, y) = max{p(A) : x in A, y not in A}: p(S) is the minimum of T(x, y)
over x in S and y outside S (the graded form of the correspondence
between finite topologies and preorders).  For a subset S and points
x in S, y outside S, pick A(x, y) attaining T(x, y); S is the union over
x of the intersection over y of the A(x, y), so p(S) is at least that
minimum, and A = S gives at most.  Reading any table through its matrix
and back, recon(T_w), always yields a valid space, and the least one
dominating w.  Hence an in-range table is valid exactly when it equals
recon(T_w), which :func:`_decide` checks and :func:`complete` builds in
O(n 2^n): both directions work per point x, one fold of 2^n cells each
(see :func:`_separation` and :func:`_recon`).

Listing the violations of a table needs only the candidate masks C,
those valued strictly above m, the least non-NaN value: a pair violation
has t[A op B] < min(t[A], t[B]), NaN compares false and the minimum
propagates it, so t[A op B] >= m and both t[A] and t[B] exceed m.  The
listing scans the upper triangle of C x C in O(|C|^2), and so decides too:
a table with no range, boundary or pair report is valid.  So :func:`_scan`, for
both :func:`verify_pairwise` and ``ptop validate``, only lists when 4 |C|^2 <= n 2^n,
and above that edge decides first and lists an invalid table only.  The factor 4 is the
measured cost ratio at n = 16: about 5-13 ns per scanned pair cell against
2.2-3.1 ns for each of the decision's 2 n 2^n cells.  The edge is |C| <= 50
at n = 10 and |C| <= 2,289 at n = 20, below the listing cap.  Past the
scan, the listing costs about as much as the reports it builds,
each filled in slot by slot and then given its class, with the cycle
collector paused.  Reports make no numbers of their own: their values are
the table's float objects and their witnesses one int object per
candidate, all gathered in O(|C|) per call, so a report holds 88 bytes,
its list entry included (tracemalloc, CPython 3.11).

A classical topology is the 0/1 table of its family (:func:`from_topology`).
A family is one exactly when it equals its closure: the sets holding, with
each point x, its minimal neighbourhood N(x), the AND of the members
holding x (Alexandroff).  With non-members read as the full set, the AND of
the upper half of the table is N(x) for the top point x, and ANDing the
halves folds x away: every N(x) in one O(2^n) pass.  A family that fails
names its first escaping pair from per-row counts of bad partners, the
members b with a | b (or a & b) outside the family, in O(n 2^n)
(:func:`_bad_partners`); both operations commute, so that pair has A <= B.

Probabilities are binary64 values that are only ever compared, copied,
min-ed and max-ed, never combined arithmetically, so they survive every
operation bit-exactly.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
import gc
from typing import Iterable, Literal

import numpy as np

from .errors import (
    CapExceeded,
    DuplicateMask,
    InvalidArgument,
    NotAPSpace,
    NotATopology,
    ProbabilityOutOfRange,
)
from .masks import _check_real, _collection, _expect, _index, _name, bits, check_ground_size, check_mask

# Documented caps: listing the violations of an invalid table with C candidate
# masks is O(|C|^2), capped at |C| <= 2^PAIRWISE_CAP (the pair cells of a full
# n = 13 scan); deciding validity has no cap below N_MAX.  The family scan is
# O(2^(2^n)).
PAIRWISE_CAP = 13
EXHAUSTIVE_CAP = 4

# Cells per block of stacked work, which bounds peak memory: the per-point
# tables of the separation and reconstruction folds, the level-chain and
# subbasis rows that close together (see _blocks), and the row blocks of the
# pair scan (see _pair_reports).  Small tables go all at once, an N_MAX table
# one row at a time.
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class WeightTable:
    """A raw value-per-subset assignment; no axioms assumed.

    ``table[mask]`` is the value of the subset encoded by ``mask``; ``n``
    is kept as a plain int.  Instances are immutable; the in-range
    invariant is established by :func:`build` and checked by the
    verifiers, not by the constructor, so that invalid tables remain
    representable and testable.  Numpy paths read ``_array()``: a
    read-only float64 copy of ``table``, made on first use and kept in a
    slot, out of ``vars()`` (benchmarks/run.py digests spaces through
    it).  Pickling and copying rebuild from ``(n, table)``, since a set
    slot cannot be restored.
    """

    __slots__ = ("__dict__", "__weakref__", "_float64")

    n: int
    table: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", check_ground_size(self.n))
        refused = f"table for ground size {self.n} must list real numbers"
        try:
            given = tuple(self.table)
            table = tuple(map(float, given))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidArgument(f"{refused} ({exc})") from None
        # float() keeps a plain float and parses as text an entry whose type has no __float__ or
        # __index__ (str, bytes, any buffer), so only a table it changed can hold text.
        numeric = ("__float__", "__index__")
        if table != given and (text := [v for v in given if not any(hasattr(type(v), m) for m in numeric)]):
            raise InvalidArgument(f"{refused} (got {_name(text[0])})")
        object.__setattr__(self, "table", table)
        if len(self.table) != 1 << self.n:
            raise InvalidArgument(
                f"table for ground size {self.n} needs {1 << self.n} entries, "
                f"got {len(self.table)}"
            )

    def __reduce__(self):
        return type(self), (self.n, self.table)

    def _array(self) -> np.ndarray:
        if not hasattr(self, "_float64"):
            object.__setattr__(self, "_float64", np.array(self.table, dtype=np.float64))
            self._float64.flags.writeable = False
        return self._float64


class PSpace(WeightTable):
    """A weight table satisfying the openness axioms, checked where it is made.

    The constructor, which copies and pickles go through too, decides the
    axioms in O(n 2^n) and raises :func:`as_pspace`'s :class:`NotAPSpace`.
    Library results are valid by construction, made by :func:`_pspace`.
    """

    def __post_init__(self):
        super().__post_init__()
        _check_axioms(self)


def _check_table(w) -> None:
    """Raise :class:`InvalidArgument` unless ``w`` is a :class:`WeightTable`, a space included."""
    _expect(w, WeightTable, "a weight table")


def _pspace(array: np.ndarray, table: tuple[float, ...] | None = None) -> PSpace:
    """The space whose float64 table is ``array``, of 2^n cells, valid by construction.

    ``array`` becomes the space's read-only ``_array()``; ``table``, when
    not given, is converted from it once.  No check runs, and
    ``__post_init__``'s per-entry conversion is skipped.
    """
    p = object.__new__(PSpace)
    object.__setattr__(p, "n", array.size.bit_length() - 1)
    object.__setattr__(p, "table", tuple(array.tolist()) if table is None else table)
    array.flags.writeable = False
    object.__setattr__(p, "_float64", array)
    return p


class _ReportFields:
    """The storage of :class:`ViolationReport`, five fields and weak references in slots, without its frozen ``__init__``."""

    __slots__ = ("kind", "witness_a", "witness_b", "required", "actual", "__weakref__")


@dataclass(frozen=True)
class ViolationReport(_ReportFields):
    """One axiom violation found by :func:`verify_pairwise`.

    Union and intersection reports are filled in there as
    :class:`_ReportFields` and retagged, and cannot be told apart from
    constructed ones; their ``required`` and ``actual`` are the table's own
    float objects, and reports share their witness ints.  ``witness_b`` is
    None for range and boundary reports.  ``required`` exceeds ``actual``
    in every report (for an out-of-range value above 1 the pair is
    ``(value, 1.0)``; for a NaN it is ``(1.0, nan)``).
    """

    __slots__ = ()

    kind: Literal["range", "boundary", "union", "intersection"]
    witness_a: int
    witness_b: int | None
    required: float
    actual: float

    @property
    def __dict__(self):  # vars() gives the fields in field order, as for a report with an instance dict
        return {name: getattr(self, name) for name in _ReportFields.__slots__[:5]}

    def __reduce__(self):  # the frozen __setattr__ refuses pickle's default slot state
        return type(self), (self.kind, self.witness_a, self.witness_b, self.required, self.actual)


@dataclass(frozen=True)
class FamilyViolation:
    """One axiom violation found by the family scan.

    ``members`` lists the family (ascending masks); it is empty for the
    empty family, whose union must already have value 1, and a singleton
    for range reports.
    """

    kind: Literal["range", "union", "intersection"]
    members: tuple[int, ...]
    required: float
    actual: float


def build(n: int, entries: Iterable[tuple[int, float]]) -> WeightTable:
    """Build a weight table from sparse (mask, value) entries.

    Unlisted masks default to 0, except the empty and full subsets which
    default to 1.  Explicit entries override the defaults, including the
    boundary ones, so invalid boundaries can be written down and caught
    by the verifiers.
    """
    n = check_ground_size(n)
    size = 1 << n
    table = [0.0] * size
    table[0] = 1.0
    table[size - 1] = 1.0
    seen = set()
    for entry in _collection(entries, "entries"):
        try:
            mask, value = entry
        except (TypeError, ValueError):
            raise InvalidArgument(f"entry must be a (mask, value) pair, got {_name(entry)}") from None
        check_mask(mask, n)
        if mask in seen:
            raise DuplicateMask(f"mask {mask} listed twice")
        seen.add(mask)
        if type(value) is not float:  # plain floats skip the call
            _check_real(value, f"value for mask {mask}")
        v = float(value)
        if not 0.0 <= v <= 1.0:
            raise ProbabilityOutOfRange(f"value {_name(v)} for mask {mask} not in [0, 1]")
        table[mask] = v if v != 0.0 else 0.0  # normalize -0.0
    return WeightTable(n, tuple(table))


def prob(p: WeightTable, a: int) -> float:
    """The value assigned to subset ``a``."""
    _check_table(p)
    check_mask(a, p.n)
    return p.table[a]


def _out_of_range(t: np.ndarray) -> np.ndarray:
    """Ascending masks whose value is outside [0, 1], NaN included."""
    return np.nonzero(~((t >= 0.0) & (t <= 1.0)))[0]


def _check_range(w: WeightTable) -> None:
    """Raise :class:`ProbabilityOutOfRange` naming the least mask of ``w`` valued outside [0, 1], NaN included."""
    bad = _out_of_range(w._array())
    if bad.size:
        mask = int(bad[0])
        raise ProbabilityOutOfRange(f"value {_name(w.table[mask])} for mask {mask} not in [0, 1]")


def _unit_reports(t: np.ndarray) -> list[ViolationReport]:
    """The range reports of ``t`` (ascending mask), then its boundary reports (empty, then full)."""
    reports = []
    for mask in _out_of_range(t):
        v = float(t[mask])
        required, actual = (0.0, v) if v < 0.0 else (v, 1.0) if v > 1.0 else (1.0, v)
        reports.append(ViolationReport("range", int(mask), None, required, actual))
    for mask in (0, t.size - 1) if t.size > 1 else (0,):
        v = float(t[mask])
        if not v >= 1.0:  # not >=, so NaN is reported too
            reports.append(ViolationReport("boundary", mask, None, 1.0, v))
    return reports


def _blocks(n: int, rows: int) -> list[slice]:
    """Consecutive slices of ``rows`` stacked tables of 2^n cells, at most _BLOCK_CELLS cells or one row each."""
    step = max(1, _BLOCK_CELLS >> n)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _separation(t: np.ndarray, n: int) -> np.ndarray:
    """T[x, y] = max{t[A] : x in A, y not in A}; the diagonal is unused.

    Per point x, the half of the table with x in A is maxed down one point
    at a time, top point first.  Just before point y is folded away, the
    max over the half with y outside is T[x, y].  A row of n - 1 entries
    then costs about 2^n cells, O(n 2^n) in all.  The points of a block
    fold together, one row of stacked halves each.
    """
    sep = np.zeros((n, n))
    for block in _blocks(n, n):
        xs = range(n)[block]
        half = np.empty((len(xs), t.size >> 1))
        for row, x in zip(half, xs):
            row.reshape(-1, 1 << x)[:] = t.reshape(-1, 2, 1 << x)[:, 1]
        points = np.arange(xs.start, xs.stop)
        # Bit k of a half's index is point k below x and point k + 1 above it.
        for k in reversed(range(n - 1)):
            low, high = half[:, : 1 << k], half[:, 1 << k :]
            sep[points, k + (k >= points)] = low.max(axis=1)
            half = np.maximum(low, high)
    return sep


def _recon(sep: np.ndarray, n: int) -> np.ndarray:
    """The table S -> min{sep[x, y] : x in S, y not in S}, 1 on the empty and full sets.

    Per point x, g(C) = min{sep[x, y] : y in C} comes from one doubling
    pass, and g reversed maps S to g of the complement of S.  Folding
    min(out, reversed g) into the half with x in S gives out in O(n 2^n).
    The points of a block double together.
    """
    out = np.full(1 << n, np.inf)
    for block in _blocks(n, n):
        xs = range(n)[block]
        cols = sep[xs].T[..., None]
        for row, x in zip(_subset_fold(cols, np.minimum, np.inf, (len(xs),))[:, ::-1], xs):
            half = out.reshape(-1, 2, 1 << x)[:, 1]
            np.minimum(half, row.reshape(-1, 2, 1 << x)[:, 1], out=half)
    out[0] = out[-1] = 1.0  # the only subsets with no (x, y) pair
    return out


_PAIR_OPS = (("union", np.bitwise_or), ("intersection", np.bitwise_and))


def _pair_reports(t: np.ndarray, cand: np.ndarray):
    """Yield the pair violations of :func:`verify_pairwise` over ``cand``, per _PAIR_OPS kind.

    ``cand`` holds ascending masks.  Each yield is one row block's
    (kind, a, b, low, target) arrays, one entry per pair A <= B of ``cand``
    with t[A op B] < min(t[A], t[B]), in lexicographic order: A, B and the
    part whose value np.minimum returned are positions in ``cand``, and
    ``target`` is the mask A op B.  On a tie of -0.0 and 0.0 np.minimum
    returns its second argument, so the part is A only where the minimum
    has t[A]'s bits.  A block takes the columns from its own first row on,
    so only its leading rows x rows square can have B < A, and only that
    square is masked.  It holds at most 1/8 as many rows as columns and
    spans at most _BLOCK_CELLS cells, or one row; at least 128 rows keep a
    small candidate set in one block.
    """
    for kind, op in _PAIR_OPS:
        start = 0
        while start < cand.size:
            cols = cand.size - start
            rows = max(1, min(max(128, cols >> 3), _BLOCK_CELLS // cols))
            a = cand[start : start + rows, None]
            b = cand[None, start:]
            ta = t[a]
            req = np.minimum(ta, t[b])
            bad = t[op(a, b)] < req
            bad[:, : a.size] &= b[:, : a.size] >= a  # pairs with B < A are never reported
            r, c = np.divmod(np.flatnonzero(bad), cols)  # 2-D nonzero is slower
            on_a = req[r, c].view(np.uint64) == ta[r, 0].view(np.uint64)
            r += start
            c += start
            yield kind, r, c, np.where(on_a, r, c), op(cand[r], cand[c])
            start += rows


@contextmanager
def _gc_paused():
    """Pause the cycle collector, and re-enable it on exit only if it was on.

    Reports hold only atomic values in slots, so a growing list of them
    forms no cycles, yet every few hundred new reports would set off a
    collection pass over the young ones, now and then over the whole list.
    The pass owed runs inside the call: exit allocates right after re-enabling.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _decide(w: WeightTable) -> tuple[list[ViolationReport], np.ndarray | None]:
    """(unit reports, recon(T_w)): the one decision of validity, O(n 2^n); a space has neither.

    recon(T_w) is left out when a unit report comes first, and when ``w``
    equals it (see the module docstring).  Called by the checkpoint
    (:func:`_check_axioms`) and by :func:`_scan` above its listing edge;
    both name a violation from recon(T_w) (:func:`_violation`), the latter
    above the listing cap.
    """
    _check_table(w)
    t = w._array()
    if units := _unit_reports(t):
        return units, None
    recon = _recon(_separation(t, w.n), w.n)
    return units, None if np.array_equal(t, recon) else recon


def _violation(w: WeightTable, units, recon) -> ViolationReport | None:
    """The one violation of ``w`` that its decision (:func:`_decide`) names, or None for a space.

    A range or boundary violation comes first, as :func:`verify_pairwise`
    lists it.  Else, with r = recon(T_w)(S) > w(S) at the first such S, the
    cut U = {A : w(A) >= r} holds the empty and full sets and, for x in S
    and y outside S, the set attaining T(x, y), yet not S: no topology.  Its
    escaping pair A < B (:func:`_mask_defect`) is a listed pair report.
    """
    if units:
        return units[0]
    if recon is None:
        return None
    t = w._array()
    kind, a, b = _mask_defect(w.n, t >= recon[np.argmax(t < recon)])  # recon dominates t
    actual = w.table[a | b if kind == "union" else a & b]
    return ViolationReport(kind, a, b, min(w.table[a], w.table[b]), actual)


def _scan(w: WeightTable):
    """(unit reports, candidates C, pair blocks): the one choice between listing and deciding first.

    C holds the masks valued above the least non-NaN value.  When 4 |C|^2 <= n 2^n
    the blocks (:func:`_pair_reports`) are the decision; above that edge ``w`` is
    decided first (:func:`_decide`), and a space comes back with no C.  An invalid
    table with more than 2^PAIRWISE_CAP candidates, all above the edge, raises
    :class:`CapExceeded` before any block, carrying the checkpoint's :func:`_violation`.
    """
    _check_table(w)
    t = w._array()
    cand = np.nonzero(t > np.fmin.reduce(t))[0]  # fmin skips NaN, and gives NaN on an all-NaN table
    if 4 * cand.size**2 <= w.n << w.n:
        return _unit_reports(t), cand, _pair_reports(t, cand)
    units, recon = _decide(w)
    if not units and recon is None:
        cand = cand[:0]
    elif cand.size > 1 << PAIRWISE_CAP:
        raise CapExceeded(
            f"listing the violations of {cand.size} candidate masks is capped at 2^{PAIRWISE_CAP}",
            _violation(w, units, recon),
        )
    return units, cand, _pair_reports(t, cand)


def verify_pairwise(w: WeightTable) -> list[ViolationReport]:
    """List the axiom violations of ``w``; empty result == valid space.

    Union and intersection violations are listed by scanning the pairs of
    the candidate masks C, those valued strictly above the table's least
    non-NaN value, in O(|C|^2), upper triangle only; a table without
    reports is valid.  :func:`_scan`, shared with ``ptop validate``, decides
    first, in O(n 2^n), only above the edge 4 |C|^2 <= n 2^n (see the module
    docstring).  Each pair report then costs about as much as the report
    object itself, its slots filled without its constructor from the
    table's own values; the collector is paused while the list grows, and
    its state is restored on return or raise.  :class:`CapExceeded`,
    carrying one violation, is raised when an invalid table has more than
    2^PAIRWISE_CAP candidates.

    Report order is deterministic: range (ascending mask), boundary
    (empty then full), union pairs in lexicographic (A, B) order with
    A <= B, then intersection pairs likewise.  Boundary reports assert
    the at-least-1 side only; a boundary value above 1 is a range matter.
    A pair with a NaN part is never reported, since its required value,
    the minimum of the parts, is NaN.
    """
    reports, cand, blocks = _scan(w)
    # The table's floats and one int per candidate; only A op B, maybe no candidate, is looked up per report.
    table = w.table
    masks = cand.astype(object)
    values = np.array([table[m] for m in masks], dtype=object)
    with _gc_paused():
        for kind, a, b, low, target in blocks:
            actual = map(table.__getitem__, target.tolist())
            for wa, wb, req, act in zip(masks[a].tolist(), masks[b].tolist(), values[low].tolist(), actual):
                r = _ReportFields()
                r.kind = kind
                r.witness_a = wa
                r.witness_b = wb
                r.required = req
                r.actual = act
                r.__class__ = ViolationReport
                reports.append(r)
    return reports


def verify_exhaustive(w: WeightTable) -> list[FamilyViolation]:
    """Check the union and intersection axioms over every family of subsets.

    The empty family is included: its union is the empty set and its
    intersection the full set, with the infimum over no values taken as 1,
    so the boundary axiom falls out of it.  The result is empty exactly
    when :func:`verify_pairwise` is empty, which makes the two scans
    oracles for each other.  Report order: range (ascending mask), union
    families (ascending family bitmask), intersection families likewise.

    The unions, intersections and minima of all 2^(2^n) families are three
    :func:`_subset_fold` passes with the 2^n cells as points.  On a tie the
    lowest member's value is reported (-0.0 or 0.0): the fold adds the
    highest member last, and np.minimum returns its second argument, the
    minimum so far, on a tie.
    """
    _check_table(w)
    if w.n > EXHAUSTIVE_CAP:
        raise CapExceeded(f"family scan capped at n = {EXHAUSTIVE_CAP}, got {w.n}")
    t = w._array()
    ranges = (r for r in _unit_reports(t) if r.kind == "range")
    reports = [FamilyViolation("range", (r.witness_a,), r.required, r.actual) for r in ranges]

    cells = np.arange(t.size)
    unions = _subset_fold(cells, np.bitwise_or, 0)
    inters = _subset_fold(cells, np.bitwise_and, t.size - 1)
    mins = _subset_fold(t, lambda low, v, out: np.minimum(v, low, out=out), 1.0)
    for kind, targets in (("union", unions), ("intersection", inters)):
        bad = t[targets] < mins
        for fam in np.nonzero(bad)[0]:
            reports.append(
                FamilyViolation(
                    kind,
                    tuple(bits(int(fam))),
                    float(mins[fam]),
                    float(t[targets[fam]]),
                )
            )
    return reports


def complete(w: WeightTable) -> PSpace:
    """The pointwise-least valid space dominating ``w``, in O(n 2^n).

    It is the reconstruction of ``w`` from its separation matrix: every
    such reconstruction is valid and dominates ``w``, and any valid space
    dominating ``w`` has a matrix at least as large, so it dominates the
    reconstruction too.  Values are drawn from the input's values plus 1,
    with -0.0 read as 0.0.  Raises :class:`ProbabilityOutOfRange` on any
    value outside [0, 1], NaN included.  The ground-size cap N_MAX is its
    only cap.
    """
    _check_table(w)
    _check_range(w)
    return _pspace(_recon(_separation(w._array() + 0.0, w.n), w.n))


def as_pspace(w: WeightTable) -> PSpace:
    """``w`` as a :class:`PSpace`; a space, checked when it was made, is returned as it is.

    Any other table is decided in O(n 2^n) and shares its tuple and array
    with the result, or raises :class:`NotAPSpace` carrying one violation.
    """
    if isinstance(w, PSpace):
        return w
    _check_axioms(w)
    return _pspace(w._array(), w.table)


def _check_axioms(w: WeightTable) -> None:
    """Raise :class:`NotAPSpace`, carrying one violation (:func:`_violation`), unless ``w`` is a space: O(n 2^n)."""
    first = _violation(w, *_decide(w))
    if first is not None:
        raise NotAPSpace(
            f"table is not a valid space: {first.kind} violation at mask "
            f"{first.witness_a} (required {first.required}, got {first.actual})",
            violation=first,
        )


def _mark(n: int, families, prefix: str | None = None) -> tuple[int, np.ndarray]:
    """``n`` as a plain int, and the boolean rows that mark ``families``, a sequence of iterables of masks, one per row.

    The one reader of mask families; ``n`` is checked first, before the
    rows of 2^n cells are made.  A block of rows at a time
    (:func:`_blocks`), each family is read once, with ``list``, into one
    int64 ``array("q")``, which takes what ``operator.index`` takes and
    refuses ints beyond int64; the block is range-checked in one pass and
    marked with one scatter.  With ``prefix``, its rows before the first
    family that fails are then decided (:func:`_first_defect`), and
    :class:`NotATopology` raised there, so no later block is read.  Reading
    stops at the first family that fails, and its error is worded from the
    list read: :class:`InvalidArgument` when it is not iterable (or raises
    TypeError while read) or holds a member that is no integer, the first
    one named (bools and numpy integers pass); else :class:`MaskOutOfRange`
    on its least and then its greatest mask.
    """
    n = check_ground_size(n)
    rows = np.zeros((len(families), 1 << n), dtype=bool)
    for block in _blocks(n, len(families)):
        part, reads, buffer = families[block], [], array("q")
        for family in part:
            got = None
            try:
                got = list(family)
                buffer.fromlist(got)
            except (TypeError, OverflowError):  # no iterable, a member no integer, or beyond int64
                break
            reads.append(got)
        masks = np.frombuffer(buffer, dtype=np.int64)
        row = np.repeat(np.arange(len(reads)), [len(r) for r in reads])
        bad = np.flatnonzero(masks >> n)  # negative, or 2^n and above
        good = bad[0] if bad.size else masks.size
        rows[block][row[:good], masks[:good]] = True
        first = int(row[good]) if bad.size else len(reads)  # the first family that fails, if any
        if prefix is not None and (defect := _first_defect(n, rows[block][:first])) is not None:
            raise NotATopology(f"{prefix}: {' '.join(map(str, defect))}", defect)
        if first < len(part):
            got = reads[first] if bad.size else got
            break
    else:
        return n, rows
    if got is None:
        raise InvalidArgument(f"mask family must be iterable, got {_name(part[first])}")
    masks = [_index(m, "mask") for m in got]  # names the first non-integer
    check_mask(min(masks), n)  # beyond int64 is out of range
    check_mask(max(masks), n)


def _subset_fold(parts, op, empty, rows=()) -> np.ndarray:
    """The table S -> op over {parts[x] : x in S}, ``empty`` on the empty set.

    It doubles one point at a time: O(2^n) per table.  With ``rows``, each
    ``parts[x]`` is a column of one value per row, and the result stacks
    one table per row.
    """
    out = np.full((*rows, 1 << len(parts)), empty)
    for x, part in enumerate(parts):
        op(out[..., : 1 << x], part, out=out[..., 1 << x : 2 << x])
    return out


def _closure(n: int, member: np.ndarray) -> np.ndarray:
    """The boolean table of the least topology holding the family marked by ``member``.

    One O(2^n) fold gives every minimal neighbourhood N(x) (see the module
    docstring); S is open exactly when the hull OR{N(x) : x in S}, which
    contains S, equals S.  ``member`` may stack tables in rows, each
    closed on its own.  The mask tables are int32, half the memory traffic
    of int64: masks stay below 2^N_MAX = 2^20.
    """
    cells = np.arange(1 << n, dtype=np.int32)
    table = np.where(member, cells, cells[-1])
    nbhd = [0] * n
    for x in reversed(range(n)):
        nbhd[x] = np.bitwise_and.reduce(table[..., 1 << x :], axis=-1, keepdims=True)
        table = table[..., : 1 << x] & table[..., 1 << x :]
    return _subset_fold(nbhd, np.bitwise_or, np.int32(0), member.shape[:-1]) == cells


def _bad_partners(n: int, member: np.ndarray) -> np.ndarray:
    """For every mask a, the number of members b with a | b outside the family: O(n 2^n).

    Three int64 folds, one point at a time: z(S) counts the members inside S;
    c, the superset Moebius transform of the non-member table, has superset
    sums 1 off the family and 0 on it; and r sums z * c over supersets.  So
    r(a) is the sum over members b of the superset sums of c at a | b,
    which is the count.  |z * c| <= 2^n and every partial sum is at most
    4^n, so the arithmetic is exact.
    """
    z = member.astype(np.int64)
    c = (~member).astype(np.int64)
    for x in range(n):
        zh, ch = z.reshape(-1, 2, 1 << x), c.reshape(-1, 2, 1 << x)
        zh[:, 1] += zh[:, 0]
        ch[:, 0] -= ch[:, 1]
    r = z * c
    for x in range(n):
        rh = r.reshape(-1, 2, 1 << x)
        rh[:, 0] += rh[:, 1]
    return r


def _mask_defect(n: int, member: np.ndarray) -> tuple:
    """:func:`topology_defect` of the family marked by the boolean table ``member``, which its caller found no topology."""
    if not member[0]:
        return ("missing-empty",)
    if not member[-1]:
        return ("missing-full",)
    # The family holds the empty and full sets but is no topology, so some
    # pair escapes it: if no union does, the intersection count finds one.
    # Reversing the table complements every mask, which swaps | and &.
    for (kind, op), step in zip(_PAIR_OPS, (1, -1)):
        bad = member & (_bad_partners(n, member[::step])[::step] > 0)
        if bad.any():
            break
    # A bad partner b < a would make b an earlier bad row, so the first bad
    # row's partners all lie above it.
    a = int(np.argmax(bad))
    later = np.nonzero(member[a:])[0] + a
    return (kind, a, int(later[np.argmin(member[op(a, later)])]))


def topology_defect(n: int, opens: Iterable[int]) -> tuple | None:
    """None when ``opens`` is a classical topology on n points, else a defect.

    Defects: ``("missing-empty",)``, ``("missing-full",)``, or
    ``("union", a, b)`` / ``("intersection", a, b)`` for the smallest pair
    (in lexicographic order over sorted members) whose combination escapes
    the family.  Union defects are searched before intersection defects.
    On a finite ground set pairwise closure implies closure under
    arbitrary unions.  Decided by :func:`_first_defect`, as a chain member
    and a :func:`from_topology` argument are.
    """
    return _first_defect(*_mark(n, (opens,)))


def _first_defect(n: int, rows: np.ndarray) -> tuple | None:
    """The defect (:func:`_mask_defect`) of the first boolean row that differs from its closure, or None.

    The rows close together, O(2^n) each; only the first that differs is
    named, in O(n 2^n).
    """
    bad = (rows != _closure(n, rows)).any(axis=1)
    return _mask_defect(n, rows[int(np.argmax(bad))]) if bad.any() else None


def from_topology(n: int, opens: Iterable[int]) -> PSpace:
    """Embed a classical topology as the space with values 1 on opens, 0 off.

    Under this embedding map continuity in the probabilistic sense
    coincides with classical continuity.
    """
    _, member = _mark(n, (opens,), "not a topology")
    return _pspace(member[0].astype(np.float64))
