from contextlib import contextmanager
import copy
import dataclasses
import gc
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from ptop import (
    CapExceeded,
    DuplicateMask,
    InvalidArgument,
    LevelChain,
    MaskOutOfRange,
    NotAPSpace,
    NotATopology,
    ProbabilityOutOfRange,
    PSpace,
    ViolationReport,
    WeightTable,
    as_pspace,
    build,
    complete,
    from_topology,
    level_cut,
    prob,
    reconstruct,
    topology_defect,
    verify_exhaustive,
    verify_pairwise,
)
import ptop
from oracles import (
    PALETTE_LEVELS,
    brute_closure,
    brute_complete,
    brute_families,
    brute_pairwise,
    brute_recon,
    brute_separation,
    brute_topology_defect,
    is_classical_topology,
    many_level_spaces,
    random_weight_table,
    rng_for,
    spiked_tables,
)

P1 = as_pspace(build(2, [(0b01, 0.5), (0b10, 0.3)]))
PALETTE = (0.0, 0.5, 1.0)


def all_tables(n, palette=PALETTE):
    for values in product(palette, repeat=1 << n):
        yield WeightTable(n, values)


def test_build_examples():
    assert build(2, [(0b01, 0.5), (0b10, 0.3)]).table == (1.0, 0.5, 0.3, 1.0)
    assert build(0, []).table == (1.0,)
    boundary_override = build(1, [(0b1, 0.4)])
    assert boundary_override.table == (1.0, 0.4)
    reports = verify_pairwise(boundary_override)
    assert [(r.kind, r.witness_a, r.required, r.actual) for r in reports] == [
        ("boundary", 0b1, 1.0, 0.4)
    ]


def test_build_errors():
    with pytest.raises(MaskOutOfRange):
        build(2, [(4, 0.5)])
    with pytest.raises(ProbabilityOutOfRange):
        build(2, [(1, 1.5)])
    with pytest.raises(ProbabilityOutOfRange):
        build(2, [(1, float("nan"))])
    with pytest.raises(DuplicateMask):
        build(2, [(1, 0.5), (1, 0.5)])


def test_verify_pairwise_examples():
    assert verify_pairwise(P1) == []
    reports = verify_pairwise(build(3, [(0b001, 0.8), (0b010, 0.7), (0b011, 0.2)]))
    assert [(r.kind, r.witness_a, r.witness_b, r.required, r.actual) for r in reports] == [
        ("union", 0b001, 0b010, 0.7, 0.2)
    ]


def test_verify_pairwise_cap():
    # Above n = 13 validity is still decided; only listing the violations of a
    # table with more than 2^13 candidate masks is refused.
    n = 14
    assert verify_pairwise(build(n, [])) == []
    sparse = build(n, [(0b01, 0.8), (0b10, 0.7), (0b11, 0.2)])
    assert _pair_reports(sparse) == [("union", 0b01, 0b10, 0.7, 0.2)]
    dense = [0.5] * (1 << n)
    dense[0] = dense[-1] = 1.0
    dense[0b11] = 0.25
    with pytest.raises(CapExceeded):
        verify_pairwise(WeightTable(n, tuple(dense)))


def test_verify_reports_out_of_range_values():
    w = WeightTable(1, (1.0, -0.25))
    kinds = [(r.kind, r.witness_a, r.required, r.actual) for r in verify_pairwise(w)]
    assert ("range", 1, 0.0, -0.25) in kinds
    w = WeightTable(1, (1.0, 1.5))
    kinds = [(r.kind, r.witness_a, r.required, r.actual) for r in verify_pairwise(w)]
    assert kinds == [("range", 1, 1.5, 1.0)]  # no boundary report: >= 1 holds


def _nan_free(reports):
    # NaN != NaN, so compare NaN fields by name.
    return [tuple("nan" if v != v else v for v in r) for r in reports]


def _check_reports_against_brute(w):
    reports = verify_pairwise(w)
    got = [(r.kind, r.witness_a, r.witness_b, r.required, r.actual) for r in reports]
    assert _nan_free(got) == _nan_free(brute_pairwise(w.table, w.n))
    for r in reports:
        assert type(r.witness_a) is int
        assert type(r.required) is float and type(r.actual) is float
        if r.kind in ("range", "boundary"):
            assert r.witness_b is None
        else:
            assert type(r.witness_b) is int


# Palettes around the candidate threshold, the least non-NaN value of a table.
THRESHOLD_PALETTES = (
    (-0.75, -0.25, -0.0, 0.3, 1.0),
    (math.nan, 0.0, 0.4, 0.8, 1.0),
    (math.nan, math.nan, math.nan, -0.5, 0.5),
    (-math.inf, math.inf, 0.0, 0.5, 1.0),
    (-0.0, 0.0, 0.6, 1.0),
)


def test_verify_candidate_threshold_matches_brute_force():
    rng = rng_for(111)
    for n in range(5):
        for palette in THRESHOLD_PALETTES:
            for _ in range(12):
                _check_reports_against_brute(random_weight_table(n, rng, palette))
    for n in (0, 1, 3):
        for v in (math.nan, -0.0, 0.0, 0.5, 1.0, -math.inf):
            _check_reports_against_brute(WeightTable(n, (v,) * (1 << n)))


def test_verify_sparse_tables_match_brute_force():
    # A few entries over a 0 or -0.0 background: only those entries and the
    # boundary are candidates.
    rng = rng_for(112)
    for n in range(1, 7):
        for _ in range(15):
            table = [(0.0, -0.0)[rng.below(2)] for _ in range(1 << n)]
            table[0] = table[-1] = 1.0
            for _ in range(1 + rng.below(4)):
                table[rng.below(1 << n)] = (-0.5, 0.2, 0.45, 0.7, 0.9, math.nan)[rng.below(6)]
            _check_reports_against_brute(WeightTable(n, tuple(table)))


def test_verify_report_order_matches_brute_force():
    rng = rng_for(101)
    for n in (2, 3):
        for _ in range(60):
            w = random_weight_table(n, rng, (-0.5, 0.0, 0.25, 0.5, 1.0, 1.25))
            got = [
                (r.kind, r.witness_a, r.witness_b, r.required, r.actual)
                for r in verify_pairwise(w)
            ]
            assert got == brute_pairwise(w.table, n)


@pytest.fixture
def separations(monkeypatch):
    """Counts of the calls to core's O(n 2^n) validity decision, through its separation fold."""
    calls = {"_separation": 0}

    def count(*args, inner=ptop.core._separation):
        calls["_separation"] += 1
        return inner(*args)

    monkeypatch.setattr(ptop.core, "_separation", count)
    return calls


def _below_the_edge(w):
    # verify_pairwise lists without deciding when 4 |C|^2 <= n 2^n, C the
    # masks valued above the table's least non-NaN value.
    t = np.array(w.table)
    c = int(np.count_nonzero(t > np.fmin.reduce(t)))
    return 4 * c * c <= w.n << w.n


def test_verify_pairwise_decides_only_above_the_listing_edge(separations):
    # Valid spaces are brute_recon of a separation matrix with a random share
    # of its entries above 0: a small share gives few candidates.  Every
    # other table lowers one proper mask.  Each entry is its own float
    # object, so identity names it.
    rng = rng_for(3301)
    seen = set()
    for n in range(4, 8):
        for trial in range(40):
            share = rng.below(n * n + 1)
            sep = [
                [PALETTE_LEVELS[1 + rng.below(10)] if rng.below(n * n) < share else 0.0 for _ in range(n)]
                for _ in range(n)
            ]
            table = brute_recon(sep, n)
            if trial % 2:
                table[1 + rng.below((1 << n) - 2)] = PALETTE_LEVELS[rng.below(4)]
            w = WeightTable(n, tuple(float(repr(v)) for v in table))
            separations["_separation"] = 0
            reports = verify_pairwise(w)
            below = _below_the_edge(w)
            assert separations["_separation"] == (0 if below else 1)
            got = [(r.kind, r.witness_a, r.witness_b, r.required, r.actual) for r in reports]
            assert got == brute_pairwise(w.table, n)
            for r in reports:
                a, b = r.witness_a, r.witness_b
                assert r.actual is w.table[a | b if r.kind == "union" else a & b]
                assert r.required is w.table[a] or r.required is w.table[b]
            seen.add((n, not reports, below))
    assert seen == set(product(range(4, 8), (True, False), (True, False)))


def test_a_sparse_table_at_the_size_cap_is_listed_without_the_decision(separations):
    # About 60 entries at n = N_MAX: the pair scan over them and the boundary
    # is the whole verification, and matches a plain loop over those masks.
    n, rng = ptop.N_MAX, rng_for(3320)
    entries = {}
    while len(entries) < 60:
        mask = rng.below(1 << n)
        if 0 < mask < (1 << n) - 1:
            entries[mask] = PALETTE_LEVELS[1 + rng.below(9)]
    w = build(n, entries.items())
    assert _below_the_edge(w)
    reports = verify_pairwise(w)
    assert separations["_separation"] == 0
    t, cand = w.table, [0, *sorted(entries), (1 << n) - 1]
    expected = [
        (kind, a, b, min(t[a], t[b]), t[op(a, b)])
        for kind, op in (("union", int.__or__), ("intersection", int.__and__))
        for i, a in enumerate(cand)
        for b in cand[i:]
        if t[op(a, b)] < min(t[a], t[b])
    ]
    assert expected
    assert [(r.kind, r.witness_a, r.witness_b, r.required, r.actual) for r in reports] == expected


def test_the_listing_edge_keeps_below_the_listing_cap(separations):
    # 4 |C|^2 <= n 2^n keeps |C| <= 2,289 at n <= N_MAX, under 2^PAIRWISE_CAP,
    # so a table over the cap is always decided first and CapExceeded comes
    # only from an invalid one: at n = 14, the 2^13 subsets of points 0-12
    # and the full set, valid, then with one subset lowered.
    assert max(math.isqrt((n << n) // 4) for n in range(ptop.N_MAX + 1)) == 2289
    assert 2290 < 1 << ptop.core.PAIRWISE_CAP
    n = 14
    opens = [*range(1 << 13), (1 << n) - 1]
    p = from_topology(n, opens)
    assert verify_pairwise(p) == [] and separations["_separation"] == 1
    table = list(p.table)
    table[0b111] = 0.5
    with pytest.raises(CapExceeded):
        verify_pairwise(WeightTable(n, tuple(table)))
    assert separations["_separation"] == 2


def test_verify_exhaustive_examples():
    assert verify_exhaustive(P1) == []
    reports = verify_exhaustive(build(3, [(0b001, 0.8), (0b010, 0.7), (0b011, 0.2)]))
    assert reports
    assert any(v.kind == "union" and v.members == (0b001, 0b010) for v in reports)
    assert verify_exhaustive(WeightTable(0, (1.0,))) == []
    with pytest.raises(CapExceeded):
        verify_exhaustive(build(5, []))


def test_exhaustive_matches_brute_family_enumeration():
    # Reprs tell -0.0 from 0.0, so a family whose minimum ties between them
    # must report the lowest member's value, as brute_families does.
    palette = (-math.inf, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, math.inf)
    rng = rng_for(202)
    for n in (0, 1, 2, 3):
        for _ in range(50):
            w = random_weight_table(n, rng, palette)
            got = [(v.kind, v.members, v.required, v.actual) for v in verify_exhaustive(w)]
            assert repr(got) == repr(brute_families(w.table, n))


def test_exhaustive_reprs_with_nan_match_a_pinned_digest():
    # brute_families folds NaN with Python's min, whose answer depends on
    # argument order, so it cannot judge tables holding NaN.  The digest was
    # taken from an earlier implementation of the scan, one that folded each
    # family from the family without its lowest member.
    palette = (-0.0, 0.0, 0.5, 1.0, math.nan, math.inf, -math.inf, -0.5, 1.5)
    rng = rng_for(14)
    digest = hashlib.sha256()
    for i in range(2000):
        w = random_weight_table(4 if i % 20 == 0 else i % 4, rng, palette)
        for v in verify_exhaustive(w):
            digest.update(repr((v.kind, v.members, v.required, v.actual)).encode())
    assert digest.hexdigest() == (
        "d9e8307c5c3e8cceb257a30bcda517d6ebf4cc7fb1eb2453611b94577521695f"
    )


def test_exhaustive_empty_family_catches_bad_boundary():
    w = WeightTable(1, (0.9, 1.0))
    reports = verify_exhaustive(w)
    assert any(v.kind == "union" and v.members == () for v in reports)


def test_pairwise_exhaustive_agree_on_all_small_tables():
    for w in all_tables(2):
        assert (not verify_pairwise(w)) == (not verify_exhaustive(w))


def test_complete_examples():
    assert complete(P1).table == P1.table  # already valid: unchanged
    fixed = complete(build(3, [(0b001, 0.8), (0b010, 0.7), (0b011, 0.2)]))
    assert fixed.table == (1.0, 0.8, 0.7, 0.7, 0.0, 0.0, 0.0, 1.0)
    zeros = complete(build(2, [(0b00, 0.0), (0b11, 0.0)]))
    assert zeros.table == (1.0, 0.0, 0.0, 1.0)


def test_complete_properties_exhaustive_n2():
    for w in all_tables(2):
        c = complete(w)
        assert not verify_pairwise(c)
        assert all(cv >= wv for cv, wv in zip(c.table, w.table))
        assert complete(c).table == c.table


def test_complete_monotone():
    rng = rng_for(303)
    for _ in range(80):
        lo = random_weight_table(3, rng, PALETTE)
        hi = WeightTable(3, tuple(max(a, b) for a, b in
                                  zip(lo.table, random_weight_table(3, rng, PALETTE).table)))
        clo, chi = complete(lo), complete(hi)
        assert all(a <= b for a, b in zip(clo.table, chi.table))


def test_complete_minimality_exhaustive_n2():
    # No valid table sits strictly between w and complete(w) over the palette.
    valid = [w for w in all_tables(2) if not verify_pairwise(w)]
    for w in all_tables(2):
        c = complete(w)
        for q in valid:
            if all(qv >= wv for qv, wv in zip(q.table, w.table)):
                between = all(qv <= cv for qv, cv in zip(q.table, c.table))
                assert not (between and q.table != c.table)


def test_from_topology_examples():
    assert from_topology(2, [0b00, 0b01, 0b11]).table == (1.0, 1.0, 0.0, 1.0)
    assert from_topology(2, [0b00, 0b11]).table == (1.0, 0.0, 0.0, 1.0)
    assert from_topology(2, [0b00, 0b01, 0b10, 0b11]).table == (1.0, 1.0, 1.0, 1.0)


def test_from_topology_rejects_non_topologies():
    with pytest.raises(NotATopology) as err:
        from_topology(3, [0b000, 0b001, 0b010, 0b111])
    assert err.value.defect == ("union", 0b001, 0b010)
    with pytest.raises(NotATopology) as err:
        from_topology(2, [0b00, 0b01])
    assert err.value.defect == ("missing-full",)
    with pytest.raises(NotATopology) as err:
        from_topology(2, [0b01, 0b11])
    assert err.value.defect == ("missing-empty",)


def _random_families(rng, n, count):
    """Families on n points: arbitrary ones (often missing the empty or the
    full set), arbitrary ones holding both, closures, and closures with a
    few masks toggled."""
    size = 1 << n
    for i in range(count):
        if i % 4 < 2:
            family = {rng.below(size) for _ in range(rng.below(size + 1))}
            if i % 4 == 1:
                family |= {0, size - 1}
        else:
            family = brute_closure(n, [rng.below(size) for _ in range(rng.below(n + 2))])
            if i % 4 == 3:
                family ^= {rng.below(size) for _ in range(1 + rng.below(2))}
        yield family


def test_topology_defect_on_every_small_family():
    for n in range(4):
        size = 1 << n
        for fam in range(1 << size):
            members = [m for m in range(size) if fam >> m & 1]
            defect = topology_defect(n, members)
            assert (defect is None) == is_classical_topology(n, members)
            assert defect == brute_topology_defect(n, members)


def test_topology_defect_matches_brute_on_random_families():
    rng = rng_for(1010)
    kinds = set()
    for n in range(6):
        for family in _random_families(rng, n, 200):
            defect = topology_defect(n, family)
            assert (defect is None) == is_classical_topology(n, family)
            assert defect == brute_topology_defect(n, family)
            kinds.add(defect[0] if defect else None)
            if defect is None:
                assert from_topology(n, family).table == tuple(
                    1.0 if m in family else 0.0 for m in range(1 << n)
                )
            else:
                with pytest.raises(NotATopology) as err:
                    from_topology(n, family)
                assert err.value.defect == defect
    assert kinds == {None, "missing-empty", "missing-full", "union", "intersection"}
    # Closures with one member toggled, on enough points that every fold of
    # the closure kernel runs.
    kinds = set()
    for n in range(6, 9):
        for _ in range(20):
            family = brute_closure(n, [rng.below(1 << n) for _ in range(rng.below(n + 2))])
            family ^= {rng.below(1 << n)}
            defect = topology_defect(n, family)
            assert defect == brute_topology_defect(n, family)
            if defect is None:
                assert is_classical_topology(n, family)
                continue
            kinds.add(defect[0])
            with pytest.raises(NotATopology) as err:
                from_topology(n, family)
            assert err.value.defect == defect
    assert {"union", "intersection"} <= kinds


def test_bad_partners_match_a_double_loop():
    # The per-row counts that name defects, on the table and on its reverse
    # (the complemented family, whose union counts are the intersection
    # counts), against a plain count over every (a, b).
    rng = rng_for(1616)
    tables = [
        [fam >> m & 1 == 1 for m in range(1 << n)]
        for n in range(4)
        for fam in range(1 << (1 << n))
    ]
    for n in range(7):
        for _ in range(30):
            tables.append([rng.below(3) > 0 for _ in range(1 << n)])
    for table in tables:
        n = len(table).bit_length() - 1
        member = np.array(table)
        for step in (1, -1):
            flipped = member[::step]
            expected = [
                sum(flipped[b] and not flipped[a | b] for b in range(1 << n))
                for a in range(1 << n)
            ]
            assert ptop.core._bad_partners(n, flipped).tolist() == expected


def _union_closure(n, seeds):
    """Every union of ``seeds``, with the empty and full sets, by plain fixpoint."""
    family = {0, (1 << n) - 1, *seeds}
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                if a | b not in family:
                    family.add(a | b)
                    changed = True
    return family


def test_union_closed_families_name_the_same_defect_as_brute_force():
    # A family closed under unions has no bad union row, so its defect comes
    # from the intersection counts; the complement of each such family is
    # closed under intersections, so its defect comes from the union counts.
    # Either defect and its NotATopology message must be those of the plain
    # loops.
    rng = rng_for(1414)
    named = 0
    for n in range(8):
        families = [
            _union_closure(n, [rng.below(1 << n) for _ in range(rng.below(n + 3))])
            for _ in range(60)
        ]
        if n >= 2:
            families.append(set(range(1 << n)) - {1 << (n - 1)})
            families.append({0} | {m for m in range(1 << n) if m.bit_count() >= 2})
        full = (1 << n) - 1
        for closed in families:
            for kind, family in (
                ("intersection", closed),
                ("union", {full ^ m for m in closed}),
            ):
                defect = brute_topology_defect(n, family)
                assert topology_defect(n, family) == defect
                if defect is None:
                    continue
                assert defect[0] == kind
                named += 1
                with pytest.raises(NotATopology) as err:
                    from_topology(n, family)
                assert err.value.defect == defect
                assert str(err.value) == "not a topology: " + " ".join(map(str, defect))
    assert named >= 200


@pytest.mark.parametrize("bad", [2**70, -1, 8])
def test_topology_defect_rejects_out_of_range_masks(bad):
    with pytest.raises(MaskOutOfRange):
        topology_defect(3, [0, 7, bad])
    with pytest.raises(MaskOutOfRange):
        from_topology(3, [0, 7, bad])


def test_prob_examples():
    assert prob(P1, 0b01) == 0.5
    assert prob(P1, 0b00) == 1.0
    assert prob(P1, 0b11) == 1.0
    with pytest.raises(MaskOutOfRange):
        prob(P1, 0b100)


def test_as_pspace():
    assert isinstance(as_pspace(build(2, [])), PSpace)
    with pytest.raises(NotAPSpace) as err:
        as_pspace(build(1, [(0b1, 0.4)]))
    assert err.value.violation.kind == "boundary"


def test_the_constructor_decides_the_axioms_as_as_pspace_does():
    # Boundary and union violations; the space once made, and its copies,
    # pickles and replacements, all pass the constructor's check.
    w = WeightTable(2, (1.0, 0.5, 0.9, 0.3))
    messages = []
    for call in (lambda: as_pspace(w), lambda: PSpace(w.n, w.table), lambda: dataclasses.replace(P1, table=w.table)):
        with pytest.raises(NotAPSpace) as err:
            call()
        messages.append((str(err.value), repr(err.value.violation)))
    assert messages == [messages[0]] * 3
    assert messages[0][0] == "table is not a valid space: boundary violation at mask 3 (required 1.0, got 0.3)"
    p = PSpace(2, P1.table)
    assert p == P1 and as_pspace(p) is p
    assert _unpickled(p) == copy.deepcopy(p) == dataclasses.replace(p, table=P1.table) == p
    # A dense invalid table with more candidates than the listing cap still
    # names a pair that violates.
    dense = [0.5] * (1 << 14)
    dense[0] = dense[-1] = 1.0
    dense[0b11] = 0.25
    with pytest.raises(NotAPSpace) as err:
        PSpace(14, dense)
    v = err.value.violation
    target = v.witness_a | v.witness_b if v.kind == "union" else v.witness_a & v.witness_b
    assert v.kind in ("union", "intersection") and v.witness_a < v.witness_b
    assert dense[target] == v.actual < v.required == min(dense[v.witness_a], dense[v.witness_b])


NAN = float("nan")
INVALID_PALETTES = (
    (0.0, -0.0, 0.5, 1.0),  # signed zeros and ties
    (0.25, 0.5, 0.5, 0.75, 1.0),  # ties
    (NAN, 0.0, 0.5, 1.0),
    (-0.5, 0.0, 0.5, 1.0, 1.5, float("inf")),
)


@contextmanager
def _defects_named_only_for_non_topologies():
    """Wrap core._mask_defect to assert that each family it is handed is no topology.

    Closedness is decided by its callers; it only names the defect.  Yields
    the list of ground sizes it was called at.
    """
    inner, calls = ptop.core._mask_defect, []

    def checked(n, member):
        family = np.flatnonzero(member).tolist()
        assert brute_topology_defect(n, family) is not None, (n, family)
        calls.append(n)
        return inner(n, member)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ptop.core, "_mask_defect", checked)
        yield calls


def _check_named_violation(w):
    # as_pspace and the constructor raise the same NotAPSpace, whose
    # violation is one the listing holds, and its first entry when that is a
    # range or boundary report.  The cut whose defect names it is no topology.
    listed = _nan_free(brute_pairwise(w.table, w.n))
    if not listed:
        assert as_pspace(w).table == w.table
        return
    with _defects_named_only_for_non_topologies(), pytest.raises(NotAPSpace) as expected:
        as_pspace(w)
    with _defects_named_only_for_non_topologies(), pytest.raises(NotAPSpace) as err:
        PSpace(w.n, w.table)
    assert str(err.value) == str(expected.value)
    assert repr(err.value.violation) == repr(expected.value.violation)
    v = expected.value.violation
    (named,) = _nan_free([(v.kind, v.witness_a, v.witness_b, v.required, v.actual)])
    assert named in listed
    if listed[0][0] in ("range", "boundary"):
        assert named == listed[0]


@pytest.mark.parametrize("n", range(8))
def test_the_checkpoint_names_a_listed_violation_on_seeded_tables(n):
    # Each table is checked as drawn and with its boundary raised to 1, so
    # that the pair path is reached as well as the range and boundary one.
    for seed in range(60 if n < 6 else 12):
        for k, palette in enumerate(INVALID_PALETTES):
            w = random_weight_table(n, rng_for(n, seed, k), palette)
            table = list(w.table)
            table[0] = table[-1] = 1.0
            for t in (w, WeightTable(n, tuple(table))):
                _check_named_violation(t)


@settings(max_examples=150, deadline=None)
@given(spiked_tables(max_n=7))
def test_the_checkpoint_names_a_listed_violation_on_spiked_tables(w):
    _check_named_violation(w)


def test_cut_defects_are_named_only_for_non_topologies():
    # Besides the checkpoint's cut (_check_named_violation), each chain member
    # reconstruct refuses, each family from_topology refuses and each family
    # topology_defect finds no topology reach _mask_defect; a closed family never does.
    with _defects_named_only_for_non_topologies() as calls:
        for n in range(8):
            for seed in range(6):
                for k, palette in enumerate(INVALID_PALETTES[:2]):  # values in [0, 1]
                    table = list(random_weight_table(n, rng_for(n, seed, k), palette).table)
                    table[0] = table[-1] = 1.0
                    w = WeightTable(n, tuple(table))
                    levels = tuple(sorted({v for v in table if v > 0.0}))
                    chain = LevelChain(n, levels, tuple(level_cut(w, q) for q in levels), 0.0)
                    if verify_pairwise(w):
                        with pytest.raises(NotATopology):
                            reconstruct(chain)
                    else:
                        assert reconstruct(chain) == as_pspace(w)
        refused_chains = len(calls)
        rng = rng_for(2808)
        for n in range(7):
            for family in _random_families(rng, n, 100):
                defect = topology_defect(n, family)
                assert defect == brute_topology_defect(n, family)
                if defect is not None:
                    with pytest.raises(NotATopology):
                        from_topology(n, family)
    assert 0 < refused_chains < len(calls)


def test_the_checkpoint_does_not_list_pair_reports(monkeypatch):
    def refuse(*args):
        raise AssertionError("the checkpoint listed pair reports")

    monkeypatch.setattr(ptop.core, "_pair_reports", refuse)
    for w in (
        WeightTable(2, (1.0, 0.5, 0.9, 0.3)),  # boundary
        build(3, [(0b01, 0.8), (0b10, 0.7), (0b11, 0.2)]),  # union
    ):
        with pytest.raises(NotAPSpace):
            as_pspace(w)


def test_zero_one_spaces_are_topologies_both_ways():
    p = from_topology(2, [0b00, 0b01, 0b11])
    assert set(p.table) <= {0.0, 1.0}
    for w in all_tables(2, palette=(0.0, 1.0)):
        if not verify_pairwise(w):
            opens = {m for m, v in enumerate(w.table) if v == 1.0}
            assert topology_defect(2, opens) is None
            assert from_topology(2, opens).table == w.table


@settings(max_examples=60)
@given(st.integers(0, 3), st.data())
def test_complete_is_inflationary_and_valid(n, data):
    values = data.draw(
        st.lists(
            st.sampled_from((0.0, 0.25, 0.5, 1.0)),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    w = WeightTable(n, tuple(values))
    c = complete(w)
    assert not verify_pairwise(c)
    assert all(cv >= wv for cv, wv in zip(c.table, w.table))
    assert complete(c).table == c.table


def _pair_reports(w):
    return [(r.kind, r.witness_a, r.witness_b, r.required, r.actual) for r in verify_pairwise(w)]


@settings(max_examples=150)
@given(many_level_spaces())
def test_many_level_spaces_are_valid_and_fixed_by_complete(p):
    assert brute_pairwise(p.table, p.n) == []
    if p.n <= 3:
        assert brute_families(p.table, p.n) == []
    assert verify_pairwise(p) == []
    assert complete(p).table == p.table


@settings(max_examples=150)
@given(many_level_spaces(), st.data())
def test_verify_matches_brute_on_perturbed_spaces(p, data):
    mask = data.draw(st.integers(0, (1 << p.n) - 1))
    value = data.draw(st.sampled_from((-0.5, 0.0, 0.05, 0.45, 0.5, 0.95, 1.0, 1.5)))
    table = list(p.table)
    table[mask] = value
    w = WeightTable(p.n, tuple(table))
    assert _pair_reports(w) == brute_pairwise(w.table, w.n)


def test_complete_matches_pair_rule_fixpoint():
    rng = rng_for(404)
    for n in range(6):
        for _ in range(40 if n < 5 else 10):
            w = random_weight_table(n, rng, (0.0, 0.2, 0.25, 0.5, 0.7, 0.8, 1.0))
            c = complete(w)
            assert list(c.table) == brute_complete(w.table, n)
            assert brute_pairwise(c.table, n) == []


# Kernel inputs: ties, signed zeros, and values drawn from [0, 1) (None).
KERNEL_PALETTES = ((0.0, 0.25, 0.5, 1.0), (-0.0, 0.0, 0.5, 1.0), None)


def _kernel_values(rng, count, palette):
    if palette is None:
        return [rng.unit() for _ in range(count)]
    return [palette[rng.below(len(palette))] for _ in range(count)]


@pytest.mark.parametrize("fold_cells", [ptop.core._BLOCK_CELLS, 16], ids=["default", "16"])
def test_separation_and_recon_match_brute_force(monkeypatch, fold_cells):
    # At 16 cells per fold block, every n >= 4 folds its points in several
    # blocks; at the default, every n here folds them in one.
    monkeypatch.setattr(ptop.core, "_BLOCK_CELLS", fold_cells)
    rng = rng_for(1111)
    for n in range(11):
        for palette in KERNEL_PALETTES:
            for _ in range(4 if n < 9 else 1):
                table = _kernel_values(rng, 1 << n, palette)
                sep = ptop.core._separation(np.array(table), n)
                expected = brute_separation(table, n)
                for x in range(n):
                    assert [sep[x, y] for y in range(n) if y != x] == [
                        expected[x][y] for y in range(n) if y != x
                    ]
                assert ptop.core._recon(sep, n).tolist() == brute_recon(expected, n)
                matrix = [_kernel_values(rng, n, palette) for _ in range(n)]
                assert ptop.core._recon(np.array(matrix), n).tolist() == brute_recon(matrix, n)


def test_verify_reads_signed_zeros_like_brute_force():
    # verify_pairwise keeps -0.0 entries, so its separation matrix and
    # reconstruction see them.  A valid space with some zeros written as
    # -0.0 stays valid, and with one entry changed its reports are those of
    # the plain loops.
    rng = rng_for(1313)
    for n in range(11):
        for _ in range(6 if n < 7 else 1):
            sep = [[(0.0, 0.0, 0.3, 0.6, 1.0)[rng.below(5)] for _ in range(n)] for _ in range(n)]
            table = [-0.0 if v == 0.0 and rng.below(2) else v for v in brute_recon(sep, n)]
            assert verify_pairwise(WeightTable(n, tuple(table))) == []
            assert brute_pairwise(table, n) == []
            table[rng.below(1 << n)] = (-0.0, 0.3, 0.6)[rng.below(3)]
            _check_reports_against_brute(WeightTable(n, tuple(table)))


@pytest.mark.parametrize("bad", [1.5, -0.5, float("inf"), float("nan")])
def test_complete_rejects_out_of_range_values(bad):
    with pytest.raises(ProbabilityOutOfRange):
        complete(WeightTable(2, (1.0, bad, 0.0, 1.0)))


def test_complete_on_nan_returns_promptly_in_a_child():
    # Run in a child with a timeout, so a completion that never settles on
    # NaN fails the test instead of hanging the suite.
    code = (
        "from ptop import ProbabilityOutOfRange, WeightTable, complete\n"
        "try:\n"
        "    complete(WeightTable(2, (1.0, float('nan'), 0.0, 1.0)))\n"
        "except ProbabilityOutOfRange:\n"
        "    print('raised')\n"
    )
    src = str(Path(ptop.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (0, "raised\n")


def test_topology_defect_on_large_families_returns_promptly_in_a_child():
    # {empty} with every set of at least two points, and the powerset without
    # the top singleton, are closed under unions; the powerset without the
    # top pair is closed under neither operation; the powerset without the
    # complement of the top singleton is closed under intersections.  Naming
    # their defects must not scan pairs row by row up to the first bad row.
    # At N_MAX, where the closure's int32 mask tables reach 2^20 - 1, the
    # sets holding the top point (with the empty set) are a topology, and the
    # powerset without the top singleton is again no topology.  A child with
    # a timeout turns a slow scan into a failure instead of a stalled suite.
    code = (
        "from ptop import NotATopology, from_topology, topology_defect\n"
        "for n, family in (\n"
        "    (17, [0] + [m for m in range(1 << 17) if m.bit_count() >= 2]),\n"
        "    (17, [m for m in range(1 << 17) if m != 1 << 16]),\n"
        "    (17, [m for m in range(1 << 17) if m != 3 << 15]),\n"
        "    (17, [m for m in range(1 << 17) if m != (1 << 16) - 1]),\n"
        "    (20, [0] + [m for m in range(1 << 20) if m >> 19]),\n"
        "    (20, [m for m in range(1 << 20) if m != 1 << 19]),\n"
        "):\n"
        "    print(topology_defect(n, family))\n"
        "    try:\n"
        "        from_topology(n, family)\n"
        "    except NotATopology as err:\n"
        "        print(err.defect, err)\n"
    )
    src = str(Path(ptop.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (
        0,
        "('intersection', 3, 5)\n"
        "('intersection', 3, 5) not a topology: intersection 3 5\n"
        "('intersection', 65537, 65538)\n"
        "('intersection', 65537, 65538) not a topology: intersection 65537 65538\n"
        "('union', 32768, 65536)\n"
        "('union', 32768, 65536) not a topology: union 32768 65536\n"
        "('union', 1, 65534)\n"
        "('union', 1, 65534) not a topology: union 1 65534\n"
        "None\n"
        "('intersection', 524289, 524290)\n"
        "('intersection', 524289, 524290) not a topology: intersection 524289 524290\n",
    )


def test_complete_normalizes_signed_zeros():
    c = complete(WeightTable(2, (-0.0, -0.0, 0.5, -0.0)))
    assert c.table == (1.0, 0.0, 0.5, 1.0)
    assert math.copysign(1.0, c.table[1]) == 1.0
    c = complete(WeightTable(3, (1.0, -0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.0)))
    assert all(math.copysign(1.0, v) == 1.0 for v in c.table)


def test_complete_runs_past_the_pair_scan_cap():
    # A sparse table at n = 14, beyond PAIRWISE_CAP: completion has no cap of
    # its own below the ground-size cap.
    n = 14
    rng = rng_for(909)
    entries = {rng.below(1 << n): (0.2, 0.45, 0.7, 0.9)[rng.below(4)] for _ in range(12)}
    w = build(n, entries.items())
    c = complete(w)
    assert all(cv >= wv for cv, wv in zip(c.table, w.table))
    assert complete(c).table == c.table
    for q in sorted(set(c.table) - {0.0}):
        assert topology_defect(n, (m for m, v in enumerate(c.table) if v >= q)) is None


def test_verify_lists_lowered_entry_violations_across_chunks():
    # Lowering one entry m of a valid space to 0 breaks exactly the pairs
    # whose union or intersection is m, so those pairs, listed with plain
    # loops, are the whole report list.  Every other entry is at least 0.1,
    # so all masks but m are candidates, and at n = 12 their pair scan runs
    # in several row chunks.
    n = 12
    rng = rng_for(808)
    sep = [[(0.1, 0.3, 0.6, 0.9)[rng.below(4)] for _ in range(n)] for _ in range(n)]
    table = brute_recon(sep, n)
    for m in (0b1101_0110_1011, 0b0010_1000_0100):
        lowered = list(table)
        lowered[m] = 0.0
        candidates = sum(v > 0.0 for v in lowered)
        assert candidates > ptop.core._BLOCK_CELLS // candidates
        expected = []
        for kind in ("union", "intersection"):
            for a in range(1 << n):
                if (a | m if kind == "union" else a & m) != m:
                    continue  # a cannot be part of a pair that makes m
                for b in range(a, 1 << n):
                    if (a | b if kind == "union" else a & b) == m:
                        req = min(lowered[a], lowered[b])
                        if req > 0.0:
                            expected.append((kind, a, b, req, 0.0))
        assert expected
        assert _pair_reports(WeightTable(n, tuple(lowered))) == expected


def test_pair_scans_match_brute_force_across_small_chunks(monkeypatch):
    # With 64 cells per chunk, the violation listing runs in many row chunks
    # at n <= 6; at n = 7 it also has more candidates than a chunk has cells.
    # Defect naming runs in no chunks; the families below check its first
    # escaping pairs against the plain loops, some in rows past the first
    # that 64 cells would hold.
    monkeypatch.setattr(ptop.core, "_BLOCK_CELLS", 64)
    rng = rng_for(1212)
    most = 0
    for n in range(8):
        for palette in ((0.0, 0.5, 1.0), (0.1, 0.4, 0.7, 1.0), (0.0, math.nan, 0.3, 0.9)):
            for _ in range(20 if n < 7 else 2):
                w = random_weight_table(n, rng, palette)
                _check_reports_against_brute(w)
                low = min((v for v in w.table if v == v), default=math.nan)
                most = max(most, sum(v > low for v in w.table))
    assert most > 64
    crossed = 0
    for n in range(7):
        for family in _random_families(rng, n, 200):
            defect = topology_defect(n, family)
            assert defect == brute_topology_defect(n, family)
            if defect and defect[0] in ("union", "intersection"):
                rows = max(1, 64 // len(family))
                crossed += sorted(family).index(defect[1]) >= rows
    assert crossed


@pytest.mark.parametrize("chunk_cells", [None, 64, 8192])
def test_pair_scan_bands_match_brute_force(monkeypatch, chunk_cells):
    # A dense n = 8 table has 255 candidates, more than the 128-row floor of
    # a band, so the scan runs in several bands, each starting at its own
    # row: two at the default size, one row each at 64 cells, and bands that
    # grow as their columns shrink at 8192.  Bands of 1/8 as many rows as
    # columns need over 1,024 candidates; the lowered-entry test at n = 12
    # runs in those.
    if chunk_cells is not None:
        monkeypatch.setattr(ptop.core, "_BLOCK_CELLS", chunk_cells)
    rng = rng_for(1313)
    for _ in range(3):
        w = random_weight_table(8, rng, (0.1, 0.4, 0.7, 1.0))
        assert sum(v > 0.1 for v in w.table) > 128
        _check_reports_against_brute(w)


def _numpy_pair_listing(w):
    # The pair reports as plain lists: np.minimum over the candidate grid,
    # upper triangle, row-major order, converted with .tolist().
    t = np.array(w.table)
    cand = np.nonzero(t > np.fmin.reduce(t))[0]
    a, b = cand[:, None], cand[None, :]
    out = []
    for kind, op in (("union", np.bitwise_or), ("intersection", np.bitwise_and)):
        req = np.minimum(t[a], t[b])
        bad = (t[op(a, b)] < req) & (b >= a)
        r, c = np.nonzero(bad)
        fields = (cand[r], cand[c], req[bad], t[op(cand[r], cand[c])])
        out += [(kind, *row) for row in zip(*(x.tolist() for x in fields))]
    return out, cand.size


@pytest.mark.parametrize("chunk_cells", [None, 64, 8192])
def test_pair_reports_share_the_tables_values(monkeypatch, chunk_cells):
    # Pair reports hold the table's own float objects and one int object per
    # candidate, with the bits of a plain numpy listing: on a tie of -0.0 and
    # 0.0 the required value is the one np.minimum returns.  -1.0 lies below
    # every other value, so -0.5 is an out-of-range candidate, and every
    # entry is its own object, so identity names the entry.
    if chunk_cells is not None:
        monkeypatch.setattr(ptop.core, "_BLOCK_CELLS", chunk_cells)
    rng = rng_for(1919)
    palette = ("-1.0", "-0.5", "-0.0", "0.0", "0.5", "1.0", "nan")
    ties = out_of_range = 0
    for n in (5, 8):
        w = WeightTable(n, tuple(float(palette[rng.below(7)]) for _ in range(1 << n)))
        reports = [r for r in verify_pairwise(w) if r.kind in ("union", "intersection")]
        expected, candidates = _numpy_pair_listing(w)
        assert len(reports) == len(expected)
        witnesses = set()
        for r, e in zip(reports, expected):
            got = (r.kind, r.witness_a, r.witness_b, r.required, r.actual)
            assert got[:3] == e[:3] and _bits(got[3:]) == _bits(e[3:])
            a, b = r.witness_a, r.witness_b
            assert r.actual is w.table[a | b if r.kind == "union" else a & b]
            assert r.required is w.table[a] or r.required is w.table[b]
            witnesses.update((id(a), id(b)))
            ties += r.required == 0.0 and _bits([w.table[a]]) != _bits([w.table[b]])
            out_of_range += r.required == -0.5
        assert len(witnesses) <= candidates
    assert ties and out_of_range


def test_bulk_built_reports_cannot_be_told_apart():
    rng = rng_for(1414)
    w = random_weight_table(6, rng, (0.0, 0.5, 1.0))
    reports = verify_pairwise(w)
    assert {r.kind for r in reports} >= {"union", "intersection"}
    for r in reports:
        c = ViolationReport(*dataclasses.astuple(r))
        assert type(r) is ViolationReport
        assert r == c and hash(r) == hash(c) and repr(r) == repr(c)
        assert list(vars(r).items()) == list(vars(c).items())
        back = pickle.loads(pickle.dumps(r))
        assert back == c and list(vars(back)) == list(vars(c))
        assert dataclasses.replace(r, actual=-1.0) == dataclasses.replace(c, actual=-1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.actual = -1.0
        assert weakref.ref(r)() is r
        assert copy.copy(r) == c and copy.deepcopy(r) == c
        assert dataclasses.asdict(r) == dataclasses.asdict(c)
        fields = vars(r)
        fields["actual"] = -1.0
        assert r == c and vars(r) == vars(c)
        with pytest.raises(AttributeError):
            object.__setattr__(r, "extra", 1)


def test_pair_reports_are_one_small_object_each():
    # A pair report is one allocation: its fields sit in slots, with no
    # instance dict, so it refers to its five field values and its type only.
    rng = ptop.SplitMix64(7)
    w = build(8, [(m, rng.unit()) for m in range(256)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = verify_pairwise(w)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == 19_021
    assert held / len(reports) <= 100
    for r in reports:
        expected = [getattr(r, f.name) for f in dataclasses.fields(r)] + [type(r)]
        assert sorted(map(id, gc.get_referents(r))) == sorted(map(id, expected))


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def _unpickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize(
    "cls, values",
    [(WeightTable, (1.0, -0.0, float("nan"), 1.0)), (PSpace, (1.0, -0.0, 0.5, 1.0))],
    ids=["WeightTable", "PSpace"],
)
def test_the_float64_array_stays_out_of_the_instance(cls, values):
    # A space must be valid, so it holds -0.0 and no NaN.
    w = cls(2, values)
    twin = cls(2, w.table)  # the same float objects, a NaN's included
    plain = cls(2, (1.0, 0.5, 0.25, 1.0))
    before = [(repr(x), hash(x)) for x in (w, plain)]
    t = w._array()
    assert t is w._array() and plain._array().tolist() == list(plain.table)
    assert not t.flags.writeable
    with pytest.raises(ValueError):
        t[1] = 0.5
    assert _bits(t) == _bits(w.table)  # -0.0 and NaN kept
    assert list(vars(w)) == ["n", "table"]
    assert w == twin and hash(w) == hash(twin) and w != plain
    assert [(repr(x), hash(x)) for x in (w, plain)] == before
    for clone in (_unpickled, copy.copy, copy.deepcopy, dataclasses.replace):
        back = clone(w)
        assert type(back) is cls and list(vars(back)) == ["n", "table"]
        assert _bits(back.table) == _bits(w.table) and _bits(back._array()) == _bits(t)
        assert clone(plain) == plain
    assert dataclasses.replace(w, n=0, table=(1.0,)) == cls(0, (1.0,))
    assert weakref.ref(w)() is w
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.table = plain.table
    messages = []
    for table in ((1.0,) * 3, np.ones(3)):
        with pytest.raises(InvalidArgument) as err:
            cls(2, table)
        messages.append(str(err.value))
    assert messages == ["table for ground size 2 needs 4 entries, got 3"] * 2


def test_as_pspace_shares_the_array_it_checked():
    w = build(2, [(0b01, 0.5)])
    p = as_pspace(w)
    assert p._array() is w._array() and _bits(p._array()) == _bits(p.table)
    assert p.table is w.table and type(p) is PSpace


@pytest.mark.parametrize(
    "make",
    [
        lambda: complete(build(3, [(1, 0.5), (6, -0.0)])),
        lambda: from_topology(2, [0, 1, 3]),
        lambda: ptop.subspace(ptop.random_pspace(4, 3, 2), 0b1011),
        lambda: ptop.reconstruct(ptop.decompose(ptop.random_pspace(4, 3, 2))),
        lambda: ptop.random_pspace(5, 4, 9),
    ],
    ids=["complete", "from_topology", "subspace", "reconstruct", "random_pspace"],
)
def test_results_keep_the_array_they_were_made_from(make):
    # Results are converted to their tuple once and keep the float64 array
    # they came from, read-only, out of vars(), as a constructed space does.
    p = make()
    assert type(p) is PSpace and list(vars(p)) == ["n", "table"]
    assert all(type(v) is float for v in p.table)
    t = p._array()
    assert t.dtype == np.float64 and not t.flags.writeable and _bits(t) == _bits(p.table)
    assert p == PSpace(p.n, p.table) and hash(p) == hash(PSpace(p.n, p.table))
    assert _unpickled(p) == p and _bits(copy.deepcopy(p)._array()) == _bits(t)


@pytest.mark.parametrize("enabled", [True, False])
def test_verify_restores_the_callers_gc_state(monkeypatch, enabled):
    w = random_weight_table(6, rng_for(1515), (0.0, 0.5, 1.0))
    scan = ptop.core._pair_reports

    def failing_scan(t, cand):
        yield next(scan(t, cand))
        raise RuntimeError("listing failed")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert verify_pairwise(w)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(ptop.core, "_pair_reports", failing_scan)
        with pytest.raises(RuntimeError, match="listing failed"):
            verify_pairwise(w)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
