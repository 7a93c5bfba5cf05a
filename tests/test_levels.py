import subprocess
import sys
from pathlib import Path

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
    PtopError,
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
import ptop
from oracles import (
    all_topologies,
    brute_closure,
    brute_topology_defect,
    is_classical_topology,
    many_level_spaces,
    rng_for,
)

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


# Chains that pin validation order and bit-exact output: (n, levels,
# topologies, base) with the expected table as a list of reprs (to see signed
# zeros), or a tuple of the error class and its defect or part of its message.
EDGE_CHAINS = [
    ((2, (1.0,), ({0, 3, 2**70},), 0.0), ("MaskOutOfRange",)),
    ((2, (1.0,), ({-1, 0, 3},), 0.0), ("MaskOutOfRange",)),
    ((2, (0.5, 1.0), ({0, 1, 3}, {0, 3, -1}), 0.0), ("MaskOutOfRange",)),
    # a member's defect is found before the pair that is not nested
    ((3, (0.5, 1.0), ({0, 7}, {0, 1, 2, 7}), 0.0), ("NotATopology", ("union", 1, 2))),
    # an earlier member's defect is found before a later member's bad mask
    ((3, (0.5, 1.0), ({0, 1, 2, 7}, {0, 7, 8}), 0.0), ("NotATopology", ("union", 1, 2))),
    ((3, (0.5, 1.0), ({0, 1, 2, 7}, {0, 7, 7.5}), 0.0), ("NotATopology", ("union", 1, 2))),
    # a nested chain whose second member is not a topology names that member's defect
    ((3, (0.5, 1.0), ({0, 1, 2, 3, 7}, {0, 1, 2, 7}), 0.0), ("NotATopology", ("union", 1, 2))),
    ((3, (0.25, 0.5, 1.0), ({0, 1, 3, 5, 7}, {0, 1, 3, 5, 7}, {0, 3, 5, 7}), 0.0),
     ("NotATopology", ("intersection", 3, 5))),
    # a pair that is not nested is found before the base out of range
    ((2, (0.5, 1.0), ({0, 3}, {0, 1, 3}), 0.9), ("ChainNotNested",)),
    # the lowest subset in no member is named
    ((3, (0.5, 1.0), ({0, 1, 3, 7}, {0, 7}), None), ("MissingBase", "subset 2 ")),
    ((2, (0.5, 1.0), ({0, 1, 3}, {0, 3}), -0.0), ["1.0", "0.5", "-0.0", "1.0"]),
    ((2, (-0.0, 0.5, 1.0), ({0, 1, 2, 3}, {0, 1, 3}, {0, 3}), None), ["1.0", "0.5", "-0.0", "1.0"]),
]


def chain_outcome(n, levels, topologies, base):
    chain = LevelChain(n, levels, tuple(frozenset(t) for t in topologies), base)
    try:
        chain.validate()
        return [repr(v) for v in reconstruct(chain).table]
    except PtopError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "defect", None)]


@pytest.mark.parametrize("case, expected", EDGE_CHAINS)
def test_chain_validation_order_and_exact_tables(case, expected):
    got = chain_outcome(*case)
    if isinstance(expected, list):
        assert got == expected
        return
    assert got[0] == expected[0]
    if len(expected) > 1 and isinstance(expected[1], tuple):
        assert got[2] == expected[1]
    elif len(expected) > 1:
        assert expected[1] in got[1]


def test_chain_edge_cases_agree_under_python_O():
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(ptop.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {tests!r}]\n"
        "from test_levels import EDGE_CHAINS, chain_outcome\n"
        "print(repr([chain_outcome(*case) for case, _ in EDGE_CHAINS]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr([chain_outcome(*case) for case, _ in EDGE_CHAINS]) + "\n"


def test_chain_members_are_checked_in_order():
    # Chains of random topologies, some with a mask toggled and some not
    # nested: the members are decided together, but the error must be that
    # of checking them one at a time, first member first, then nesting.
    rng = rng_for(1617)
    for _ in range(300):
        n, k = 1 + rng.below(4), 1 + rng.below(4)
        members = []
        for _ in range(k):
            topo = brute_closure(n, [rng.below(1 << n) for _ in range(rng.below(n + 2))])
            if members and rng.below(2):
                topo &= members[-1]
            if not rng.below(4):
                topo ^= {rng.below(1 << n)}
            members.append(frozenset(topo))
        expected = None
        for topo in members:
            defect = brute_topology_defect(n, topo)
            if defect is not None:
                expected = ("NotATopology", defect)
                break
        else:
            if any(not lower <= higher for higher, lower in zip(members, members[1:])):
                expected = ("ChainNotNested", None)
        levels = tuple((i + 1) / k for i in range(k))
        try:
            LevelChain(n, levels, tuple(members), 0.0).validate()
            got = None
        except PtopError as exc:
            got = (type(exc).__name__, getattr(exc, "defect", None))
        assert got == expected
