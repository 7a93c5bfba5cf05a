import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from ptop import (
    DimensionMismatch,
    NotAPSpace,
    PointMap,
    PointOutOfRange,
    PSpace,
    WeightTable,
    as_pspace,
    build,
    complete,
    compose,
    compress,
    continuity_witness,
    from_topology,
    full_mask,
    identity_map,
    inclusion_map,
    is_pcontinuous,
    random_pspace,
    subspace,
    verify_pairwise,
)
from oracles import (
    all_topologies,
    brute_continuity_witness,
    brute_pairwise,
    brute_subspace_prob,
    classically_continuous,
    loop_pullback,
    many_level_spaces,
    rng_for,
    spiked_tables,
)

P1 = as_pspace(build(2, [(0b01, 0.5), (0b10, 0.3)]))


def test_point_map_validation():
    with pytest.raises(PointOutOfRange):
        PointMap(2, 1, (0, 1))
    with pytest.raises(ValueError):
        PointMap(2, 1, (0,))


def test_subspace_examples():
    s = subspace(P1, 0b01)
    assert s.n == 1 and s.table == (1.0, 1.0)
    assert subspace(P1, 0b11).table == P1.table
    empty = subspace(P1, 0b00)
    assert empty.n == 0 and empty.table == (1.0,)


def test_subspace_reads_negative_zero_as_positive_zero():
    p = PSpace(3, (1.0,) + (-0.0,) * 6 + (1.0,))
    for y in (0b001, 0b011, 0b111):
        s = subspace(p, y)
        assert s.table == (1.0,) + (0.0,) * ((1 << s.n) - 2) + (1.0,)
        assert all(math.copysign(1.0, v) == 1.0 for v in s.table)


@settings(max_examples=150, deadline=None)
@given(many_level_spaces(max_n=6), st.data())
def test_subspace_matches_brute_trace_on_many_level_spaces(w, data):
    p = PSpace(w.n, w.table)
    y = data.draw(st.integers(0, full_mask(w.n)))
    s = subspace(p, y)
    expected = [0.0] * (1 << y.bit_count())
    for a in range(1 << p.n):
        if a & ~y:
            continue
        expected[compress(a, y)] = brute_subspace_prob(p.table, p.n, y, a)
    assert list(s.table) == expected
    assert brute_pairwise(s.table, s.n) == []


def _check_trace(p, y):
    s = subspace(p, y)
    for a in range(1 << p.n):
        if a & ~y:
            continue
        got = s.table[compress(a, y)]
        assert got == brute_subspace_prob(p.table, p.n, y, a)
        assert got >= p.table[a]  # trace dominance


def test_subspace_matches_brute_trace():
    rng = rng_for(404)
    for _ in range(30):
        n = rng.below(6)
        p = random_pspace(n, 1 + rng.below(3), rng.next64())
        _check_trace(p, rng.below(1 << n) if n else 0)


@settings(max_examples=100, deadline=None)
@given(spiked_tables(max_n=6), st.data())
def test_subspace_of_a_spiked_table_is_its_trace_or_refused(w, data):
    # A table that is no space is refused before any trace is taken.
    y = data.draw(st.integers(0, full_mask(w.n)))
    if brute_pairwise(w.table, w.n):
        with pytest.raises(NotAPSpace):
            subspace(w, y)
    else:
        _check_trace(w, y)


def test_inclusion_map_examples():
    assert inclusion_map(0b101, 3).image == (0, 2)
    assert inclusion_map(0b11, 2).image == (0, 1)
    assert inclusion_map(0b0, 2).image == ()


def test_continuity_examples():
    assert continuity_witness(identity_map(2), P1, P1) is None
    discrete1 = from_topology(1, [0b0, 0b1])
    assert continuity_witness(PointMap(2, 1, (0, 0)), P1, discrete1) is None
    indiscrete = as_pspace(build(2, []))
    assert continuity_witness(identity_map(2), indiscrete, P1) == 0b01
    assert not is_pcontinuous(identity_map(2), indiscrete, P1)


@settings(max_examples=300, deadline=None)
@given(many_level_spaces(max_n=6), many_level_spaces(max_n=6), st.data())
def test_continuity_matches_brute_force_on_many_level_spaces(w, q, data):
    # Random and constant maps between ground sizes drawn apart; only the
    # space on no points maps into a codomain on no points.
    p = w if q.n else WeightTable(0, (1.0,))
    point = st.integers(0, max(q.n - 1, 0))
    if data.draw(st.booleans()):
        image = (data.draw(point),) * p.n
    else:
        image = tuple(data.draw(st.lists(point, min_size=p.n, max_size=p.n)))
    f = PointMap(p.n, q.n, image)
    expected = brute_continuity_witness(image, p.table, q.table, q.n)
    assert continuity_witness(f, p, q) == expected
    assert is_pcontinuous(f, p, q) == (expected is None)


def test_continuity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        continuity_witness(identity_map(3), P1, P1)
    with pytest.raises(DimensionMismatch):
        compose(PointMap(2, 1, (0, 0)), PointMap(2, 2, (0, 1)))


def test_compose_examples():
    swap = PointMap(2, 2, (1, 0))
    assert compose(swap, swap).image == (0, 1)
    f = PointMap(2, 1, (0, 0))
    g = PointMap(1, 2, (1,))
    assert compose(f, g).image == (1, 1)
    assert compose(swap, identity_map(2)).image == swap.image


def test_inclusion_is_continuous_for_subspaces():
    rng = rng_for(505)
    for _ in range(40):
        n = rng.below(7)
        p = random_pspace(n, 1 + rng.below(3), rng.next64())
        y = rng.below(1 << n) if n else 0
        assert continuity_witness(inclusion_map(y, n), subspace(p, y), p) is None


@settings(max_examples=100, deadline=None)
@given(many_level_spaces(max_n=6), st.data())
def test_inclusion_is_continuous_for_subspaces_on_many_level_spaces(w, data):
    y = data.draw(st.integers(0, full_mask(w.n)))
    assert continuity_witness(inclusion_map(y, w.n), subspace(w, y), w) is None


def _check_composition(f: PointMap, g: PointMap, r):
    # Pull r back along g, then along f: both maps are continuous, so their
    # composite must be too.
    q = complete(loop_pullback(g, r))
    p = complete(loop_pullback(f, q))
    assert continuity_witness(f, p, q) is None
    assert continuity_witness(g, q, r) is None
    assert continuity_witness(compose(f, g), p, r) is None


def test_composition_preserves_continuity():
    rng = rng_for(606)
    for _ in range(40):
        nx, ny, nz = rng.below(5), rng.below(5), rng.below(5)
        r = random_pspace(nz, 1 + rng.below(3), rng.next64())
        g = PointMap(ny, nz, tuple(rng.below(nz) for _ in range(ny))) if nz else None
        if g is None:
            continue
        f = PointMap(nx, ny, tuple(rng.below(ny) for _ in range(nx))) if ny else None
        if f is None:
            continue
        _check_composition(f, g, r)


@settings(max_examples=100, deadline=None)
@given(many_level_spaces(max_n=4), st.integers(0, 4), st.integers(1, 4), st.data())
def test_composition_preserves_continuity_on_many_level_spaces(r, nx, ny, data):
    if not r.n:
        return  # no map from a nonempty ground set into the empty one
    g = PointMap(ny, r.n, tuple(data.draw(st.lists(st.integers(0, r.n - 1), min_size=ny, max_size=ny))))
    f = PointMap(nx, ny, tuple(data.draw(st.lists(st.integers(0, ny - 1), min_size=nx, max_size=nx))))
    _check_composition(f, g, r)


def test_classical_equivalence_on_two_points():
    # Under the 0/1 embedding, continuity agrees with classical continuity.
    for n in (1, 2):
        for m in (1, 2):
            for dom in all_topologies(n):
                for cod in all_topologies(m):
                    p, q = from_topology(n, dom), from_topology(m, cod)
                    for packed in range(m**n):
                        image, rest = [], packed
                        for _ in range(n):
                            image.append(rest % m)
                            rest //= m
                        f = PointMap(n, m, tuple(image))
                        assert is_pcontinuous(f, p, q) == classically_continuous(
                            image, dom, cod
                        )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32), st.data())
def test_subspace_is_always_valid(n, seed, data):
    p = random_pspace(n, 2, seed)
    y = data.draw(st.integers(0, full_mask(n)))
    w = data.draw(many_level_spaces(max_n=6))
    z = data.draw(st.integers(0, full_mask(w.n)))
    for space, mask in ((p, y), (PSpace(w.n, w.table), z)):
        s = subspace(space, mask)
        assert s.n == mask.bit_count()
        assert not verify_pairwise(s)
