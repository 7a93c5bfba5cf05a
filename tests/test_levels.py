from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from ptop import (
    ChainNotNested,
    LevelChain,
    MaskOutOfRange,
    MissingBase,
    NotATopology,
    ProbabilityOutOfRange,
    PSpace,
    as_pspace,
    build,
    from_topology,
    decompose,
    level_cut,
    q_open,
    random_pspace,
    reconstruct,
    verify_pairwise,
)
from oracles import all_topologies, is_classical_topology, many_level_spaces

P1 = as_pspace(build(2, [(0b01, 0.5), (0b10, 0.3)]))


def test_level_cut_examples():
    assert level_cut(P1, 1.0) == {0b00, 0b11}
    assert level_cut(P1, 0.5) == {0b00, 0b01, 0b11}
    assert level_cut(P1, 0.0) == {0b00, 0b01, 0b10, 0b11}
    with pytest.raises(ProbabilityOutOfRange):
        level_cut(P1, 1.5)


def test_q_open_examples():
    assert q_open(P1, 0b10, 0.3)
    assert not q_open(P1, 0b01, 0.3)
    assert q_open(P1, 0b00, 1.0)
    with pytest.raises(MaskOutOfRange):
        q_open(P1, 0b100, 0.5)
    with pytest.raises(ProbabilityOutOfRange):
        q_open(P1, 0b01, -0.1)


def test_decompose_examples():
    chain = decompose(P1)
    assert chain.levels == (0.3, 0.5, 1.0)
    assert chain.topologies == (
        frozenset({0b00, 0b01, 0b10, 0b11}),
        frozenset({0b00, 0b01, 0b11}),
        frozenset({0b00, 0b11}),
    )
    assert chain.base is None

    chain = decompose(from_topology(2, [0b00, 0b01, 0b11]))
    assert chain.levels == (1.0,)
    assert chain.topologies == (frozenset({0b00, 0b01, 0b11}),)
    assert chain.base == 0.0

    chain = decompose(as_pspace(build(1, [(0b1, 1.0), (0b0, 1.0)])))
    assert chain.levels == (1.0,)
    assert chain.topologies == (frozenset({0b0, 0b1}),)
    assert chain.base is None


def test_reconstruct_examples():
    assert reconstruct(decompose(P1)).table == P1.table
    indiscrete = reconstruct(LevelChain(3, (1.0,), (frozenset({0, 0b111}),), 0.0))
    assert indiscrete.table == (1.0,) + (0.0,) * 6 + (1.0,)
    chain = LevelChain(2, (0.5, 1.0), (frozenset({0, 1, 3}), frozenset({0, 3})), 0.2)
    assert reconstruct(chain).table == (1.0, 0.5, 0.2, 1.0)


def test_reconstruct_validation_errors():
    topo = frozenset({0, 3})
    with pytest.raises(ChainNotNested):
        reconstruct(LevelChain(2, (0.5, 1.0), (topo, frozenset({0, 1, 3})), 0.0))
    with pytest.raises(MaskOutOfRange):
        reconstruct(LevelChain(2, (1.0,), (frozenset({0, 3, 4}),), 0.0))
    with pytest.raises(NotATopology):
        reconstruct(LevelChain(3, (1.0,), (frozenset({0, 1, 2, 7}),), 0.0))
    with pytest.raises(MissingBase):
        reconstruct(LevelChain(2, (1.0,), (topo,), None))
    with pytest.raises(ProbabilityOutOfRange):
        reconstruct(LevelChain(2, (0.5, 1.0), (topo, topo), 0.7))
    with pytest.raises(ValueError):
        reconstruct(LevelChain(2, (1.0, 0.5), (topo, topo), 0.0))
    with pytest.raises(ValueError):
        reconstruct(LevelChain(2, (0.5,), (topo,), 0.0))  # last level not 1


def test_reconstruct_any_valid_chain_gives_valid_space():
    # All nested pairs of topologies on 2 points, all with levels (0.5, 1).
    topologies = all_topologies(2)
    for t1 in topologies:
        for t2 in topologies:
            if not t2 <= t1:
                continue
            base = None if len(t1) == 4 else 0.25
            p = reconstruct(LevelChain(2, (0.5, 1.0), (t1, t2), base))
            assert not verify_pairwise(p)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.integers(0, 2**32))
def test_roundtrip_and_cut_properties(n, k, seed):
    p = random_pspace(n, k, seed)
    chain = decompose(p)
    assert reconstruct(chain).table == p.table
    assert chain.levels[-1] == 1.0
    values = sorted(set(p.table))
    for q in values:
        if 0.0 <= q <= 1.0:
            assert is_classical_topology(p.n, level_cut(p, q))
    # cuts shrink as the threshold grows
    cuts = [level_cut(p, q) for q in chain.levels]
    for bigger, smaller in zip(cuts, cuts[1:]):
        assert smaller <= bigger


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32), st.data())
def test_q_open_monotone(n, seed, data):
    p = random_pspace(n, 2, seed)
    a = data.draw(st.integers(0, (1 << n) - 1))
    q1 = data.draw(st.floats(0, 1))
    q2 = data.draw(st.floats(0, 1))
    lo, hi = min(q1, q2), max(q1, q2)
    if q_open(p, a, lo):
        assert q_open(p, a, hi)


@settings(max_examples=150, deadline=None)
@given(many_level_spaces(max_n=6))
def test_cuts_and_roundtrip_on_many_level_spaces(w):
    p = PSpace(w.n, w.table)
    for q in sorted(set(p.table)):
        assert is_classical_topology(p.n, level_cut(p, q))
    back = reconstruct(decompose(p))
    assert back == p
    assert verify_pairwise(back) == []
