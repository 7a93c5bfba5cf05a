import hashlib
from itertools import combinations
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from ptop import (
    Cover,
    CoverDefect,
    SplitMix64,
    DimensionMismatch,
    DuplicateMask,
    NotACover,
    as_pspace,
    build,
    connectivity_threshold,
    disconnection_witness,
    from_topology,
    is_qconnected,
    level_cut,
    min_subcover,
    qcover_witness,
    random_pspace,
    WeightTable,
)
from oracles import (
    PALETTE_LEVELS,
    brute_disconnected,
    brute_min_cover_indices,
    brute_threshold,
    loop_disconnection,
    many_level_spaces,
    rng_for,
    spiked_tables,
)

P1 = as_pspace(build(2, [(0b01, 0.5), (0b10, 0.3)]))


def test_cover_validation():
    with pytest.raises(DuplicateMask):
        Cover(2, (0b01, 0b01))
    with pytest.raises(DimensionMismatch):
        qcover_witness(P1, Cover(3, (0b111,)), 0.5)


def test_qcover_examples():
    assert qcover_witness(P1, Cover(2, (0b01, 0b10)), 0.3) is None
    defect = qcover_witness(P1, Cover(2, (0b01, 0b10)), 0.4)
    assert defect.kind == "low-probability" and defect.mask == 0b10
    defect = qcover_witness(P1, Cover(2, (0b01,)), 0.0)
    assert defect.kind == "uncovered-point" and defect.point == 1


def test_qcover_monotone_downward_in_q():
    rng = rng_for(707)
    for _ in range(40):
        n = 1 + rng.below(5)
        p = random_pspace(n, 2, rng.next64())
        members = tuple({rng.below(1 << n) | 1 << rng.below(n) for _ in range(3)})
        cover = Cover(n, members)
        hi = rng.unit()
        lo = hi * rng.unit()
        if qcover_witness(p, cover, hi) is None:
            assert qcover_witness(p, cover, lo) is None


@settings(max_examples=100, deadline=None)
@given(many_level_spaces(), st.data())
def test_qcover_monotone_downward_in_q_on_many_level_spaces(w, data):
    cover = Cover(w.n, tuple(data.draw(st.sets(st.integers(0, (1 << w.n) - 1), max_size=3))))
    level = st.sampled_from(PALETTE_LEVELS) | st.floats(0, 1)
    lo, hi = sorted((data.draw(level), data.draw(level)))
    if qcover_witness(w, cover, hi) is None:
        assert qcover_witness(w, cover, lo) is None


def test_a_nan_value_or_threshold_is_not_at_least_q():
    # Members must have value at least q, the cut level_cut collects; NaN
    # compares false both ways, so a NaN value or threshold fails the test.
    nan = float("nan")
    w = WeightTable(2, (1.0, nan, 0.0, 1.0))
    assert level_cut(w, 0.5) == {0, 3}
    assert qcover_witness(w, Cover(2, (1, 3)), 0.5) == CoverDefect("low-probability", mask=1)
    assert qcover_witness(random_pspace(3, 3, 5), Cover(3, (7,)), nan) == CoverDefect("low-probability", mask=7)


@settings(max_examples=150, deadline=None)
@given(spiked_tables(), st.data())
def test_a_covering_cover_is_a_qcover_exactly_inside_the_level_cut(w, data):
    # Tables hold a NaN and other spikes; singletons complete the drawn members to a cover.
    table = list(w.table)
    table[data.draw(st.integers(0, len(table) - 1))] = float("nan")
    w = WeightTable(w.n, tuple(table))
    members = data.draw(st.sets(st.integers(0, len(table) - 1), max_size=4))
    covered = 0
    for m in members:
        covered |= m
    members |= {1 << x for x in range(w.n) if not covered >> x & 1}
    q = data.draw(st.sampled_from(PALETTE_LEVELS) | st.floats(0, 1))
    assert (qcover_witness(w, Cover(w.n, tuple(members)), q) is None) == (members <= level_cut(w, q))


def test_min_subcover_examples():
    assert min_subcover(Cover(2, (0b01, 0b10, 0b11))).members == (0b11,)
    assert min_subcover(Cover(2, (0b01, 0b10))).members == (0b01, 0b10)
    assert min_subcover(Cover(3, (0b011, 0b110, 0b101))).members == (0b011, 0b110)
    with pytest.raises(NotACover):
        min_subcover(Cover(2, (0b01,)))


def test_min_subcover_trivial_ground():
    assert min_subcover(Cover(0, ())).members == ()


def test_min_subcover_matches_brute_force():
    rng = rng_for(808)
    for _ in range(60):
        n = 1 + rng.below(6)
        count = 1 + rng.below(8)
        members = []
        seen = set()
        for _ in range(count):
            m = rng.below(1 << n)
            if m not in seen:
                seen.add(m)
                members.append(m)
        missing = (1 << n) - 1
        for m in members:
            missing &= ~m
        if missing:
            members.append(missing)  # cannot collide: its bits were uncovered
        cover = Cover(n, tuple(members))
        picks = brute_min_cover_indices(members, n)
        assert min_subcover(cover).members == tuple(members[i] for i in picks)


def test_min_subcover_matches_brute_force_on_mid_size_covers():
    # 10-18 members of 1-4 points on 8-12 points, then a singleton for each
    # uncovered point: answers of 3-7, often with ties broken by index order.
    rng = rng_for(1616)
    for _ in range(150):
        n = 8 + rng.below(5)
        members = []
        for _ in range(10 + rng.below(9)):
            m = 0
            for _ in range(1 + rng.below(4)):
                m |= 1 << rng.below(n)
            if m not in members:
                members.append(m)
        missing = (1 << n) - 1
        for m in members:
            missing &= ~m
        members += [1 << x for x in range(n) if missing >> x & 1]
        picks = brute_min_cover_indices(members, n)
        assert min_subcover(Cover(n, tuple(members))).members == tuple(members[i] for i in picks)


def test_min_subcover_recursion_depth_follows_the_answer():
    # One 19-point member, 1,500 four-point members inside it, then {19}: the
    # answer has 2 members, so the search must not recurse once per member.
    wide = (1 << 19) - 1
    fours = [sum(1 << x for x in c) for c in combinations(range(19), 4)][:1500]
    cover = Cover(20, (wide, *fours, 1 << 19))
    assert min_subcover(cover).members == (524287, 524288)


def benchmark_shaped_cover(rng):
    """33-40 masks of 1-4 random points on 20 points, duplicates dropped,
    then a singleton for each uncovered point."""
    n = 20
    members = []
    for _ in range(33 + rng.below(8)):
        points = 1 + rng.below(4)
        m = 0
        while m.bit_count() < points:
            m |= 1 << rng.below(n)
        if m not in members:
            members.append(m)
    covered = 0
    for m in members:
        covered |= m
    members += [1 << x for x in range(n) if not covered >> x & 1]
    return Cover(n, tuple(members))


# SHA-256 of the min_subcover answers below, taken from the branch-and-bound
# search; pins the minimum size and the lexicographic tie-break on covers too
# large for the brute-force oracle.
MIN_SUBCOVER_GRID_SHA256 = "4b0bf0cd097449c6ba8be7811d15172c35b1cc9b2b4e7a8ae0e1d69facecbb76"


def test_min_subcover_answers_are_pinned():
    digest = hashlib.sha256()
    for seed in range(40):
        sub = min_subcover(benchmark_shaped_cover(SplitMix64(seed)))
        digest.update((",".join(map(str, sub.members)) + "\n").encode())
    assert digest.hexdigest() == MIN_SUBCOVER_GRID_SHA256


def test_disconnection_examples():
    assert disconnection_witness(P1, 0.3) == (0b01, 0b10)
    assert disconnection_witness(P1, 0.31) is None
    assert is_qconnected(P1, 0.31)
    one_point = as_pspace(build(1, []))
    assert disconnection_witness(one_point, 0.0) is None


def test_threshold_examples():
    assert connectivity_threshold(P1) == 0.3
    discrete = from_topology(2, [0b00, 0b01, 0b10, 0b11])
    assert connectivity_threshold(discrete) == 1.0
    assert not is_qconnected(discrete, 1.0)
    one_point = as_pspace(build(1, []))
    assert connectivity_threshold(one_point) == float("-inf")
    empty = as_pspace(build(0, []))
    assert connectivity_threshold(empty) == float("-inf")


def _check_connectivity(p):
    m = connectivity_threshold(p)
    want = brute_threshold(p.table, p.n)
    # A NaN below the full set takes part in some partition and makes m NaN.
    nan = any(math.isnan(v) for v in p.table[1:-1])
    assert (want is None and m == float("-inf")) or (math.isnan(m) if nan else m == want)
    for q in sorted(set(p.table)) + [0.0, 1.0]:
        witness = disconnection_witness(p, q)
        assert witness == loop_disconnection(p.table, p.n, q)
        assert witness is None or list(map(type, witness)) == [int, int]
        assert is_qconnected(p, q) == (not brute_disconnected(p.table, p.n, q))
        assert nan or not 0.0 <= q <= 1.0 or is_qconnected(p, q) == (q > m)


def test_connectivity_matches_brute_force():
    rng = rng_for(909)
    for _ in range(50):
        n = rng.below(7)
        _check_connectivity(random_pspace(n, 1 + rng.below(3), rng.next64()))


@settings(max_examples=100, deadline=None)
@given(st.one_of(many_level_spaces(max_n=6), spiked_tables(max_n=6)))
def test_connectivity_matches_brute_force_on_many_level_spaces(w):
    _check_connectivity(w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32), st.data())
def test_connectedness_monotone_in_q(n, seed, data):
    p = random_pspace(n, 2, seed)
    q1 = data.draw(st.floats(0, 1))
    q2 = data.draw(st.floats(0, 1))
    lo, hi = min(q1, q2), max(q1, q2)
    w = data.draw(many_level_spaces(max_n=6))
    for space in (p, w):
        if is_qconnected(space, lo):
            assert is_qconnected(space, hi)
