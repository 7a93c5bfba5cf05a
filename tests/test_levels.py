import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from ptop import (
    ChainNotNested,
    InvalidArgument,
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


def test_reconstruct_reads_one_shot_levels_and_members_once():
    # Validation reads the levels and members once, and the table is filled
    # from the levels it checked, not from a second pass over an iterator.
    assert reconstruct(LevelChain(1, iter([1.0]), (frozenset({0, 1}),), None)).table == (1.0, 1.0)
    chain = LevelChain(2, map(float, (0.5, 1.0)), iter((frozenset({0, 1, 3}), frozenset({0, 3}))), 0.2)
    assert reconstruct(chain).table == (1.0, 0.5, 0.2, 1.0)


def test_an_earlier_members_defect_carries_no_later_build_error():
    # The second member fails to build, but the first is named: its error
    # is raised outside the handler, so no traceback shows the later one.
    with pytest.raises(NotATopology) as err:
        LevelChain(2, (0.5, 1.0), (frozenset({0, 1, 2}), 5), 0.0).validate()
    assert err.value.defect == ("missing-full",) and err.value.__context__ is None
    with pytest.raises(InvalidArgument) as err:
        LevelChain(2, (0.5, 1.0), (frozenset({0, 1, 3}), 5), 0.0).validate()
    assert str(err.value) == "mask family must be iterable, got 5"


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


@pytest.mark.parametrize("fold_cells", [ptop.core._FOLD_CELLS, 16], ids=["default", "16"])
def test_chain_members_are_checked_in_order(monkeypatch, fold_cells):
    # Chains of random topologies, some with a mask toggled, some not nested
    # and some holding a member that fails to build (a mask out of range, a
    # member that is no integer, or no collection at all): the members are
    # decided together, but the error must be that of checking them one at a
    # time, first member first, then nesting.  At 16 cells per block, chains
    # from n = 3 up close in several blocks.
    monkeypatch.setattr(ptop.core, "_FOLD_CELLS", fold_cells)
    rng = rng_for(1617)
    for _ in range(300):
        n, k = 1 + rng.below(4), 1 + rng.below(4)
        members, topos = [], []
        for _ in range(k):
            topo = brute_closure(n, [rng.below(1 << n) for _ in range(rng.below(n + 2))])
            if topos and rng.below(2):
                topo &= topos[-1]
            if not rng.below(4):
                topo ^= {rng.below(1 << n)}
            topos.append(topo)
            unbuilt = rng.below(12)
            members.append(
                topo | {(1 << n) + rng.below(4)} if unbuilt == 0
                else topo | {0.5} if unbuilt == 1
                else 5 if unbuilt == 2
                else frozenset(topo)
            )
        expected = None
        for topo in members:
            if topo == 5 or 0.5 in topo:
                expected = ("InvalidArgument", None)
            elif max(topo, default=0) >= 1 << n:
                expected = ("MaskOutOfRange", None)
            else:
                defect = brute_topology_defect(n, topo)
                expected = None if defect is None else ("NotATopology", defect)
            if expected is not None:
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


NAN = float("nan")


@pytest.mark.parametrize(
    "n, table, message",
    [
        (2, (1.0, NAN, 0.5, 1.0), "threshold nan not in [0, 1]"),
        (2, (NAN, 0.5, 0.25, 1.0), "threshold nan not in [0, 1]"),
        (2, (1.0, -0.5, 0.5, 1.0), "threshold -0.5 not in [0, 1]"),
        (2, (1.0, -0.25, -0.5, 1.0), "threshold -0.5 not in [0, 1]"),
        (2, (1.0, 1.5, -0.0, 1.0), "threshold 1.5 not in [0, 1]"),
        (2, (1.0, 2.0, 1.5, 1.0), "threshold 1.5 not in [0, 1]"),
        (2, (1.0, float("inf"), 0.5, 1.0), "threshold inf not in [0, 1]"),
        # NaN sorts last, so another bad value is named whatever the table order
        (2, (1.0, NAN, -0.5, 1.0), "threshold -0.5 not in [0, 1]"),
        (2, (NAN, 1.5, NAN, 1.0), "threshold 1.5 not in [0, 1]"),
        (2, (1.0, float("inf"), NAN, 1.0), "threshold inf not in [0, 1]"),
    ],
)
def test_decompose_of_an_unchecked_space_out_of_range_names_its_first_level(n, table, message):
    # The cuts come from one comparison, but a value outside [0, 1] must still
    # raise, naming the first offending level in ascending order.
    with pytest.raises(ProbabilityOutOfRange) as err:
        decompose(PSpace(n, table))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, table, defect",
    [
        (3, (1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0), ("union", 1, 2)),
        (3, (1.0, 0.5, 0.5, 0.25, 0.75, 0.0, 0.0, 1.0), ("union", 1, 4)),
        (3, (1.0, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 1.0), ("intersection", 3, 5)),
        (2, (0.5, 0.0, 0.0, 1.0), ("missing-empty",)),
        (2, (1.0, 0.0, 0.0, 0.0), ("missing-full",)),
    ],
)
def test_reconstruct_of_a_decomposed_invalid_space_names_its_defect(n, table, defect):
    # reconstruct closes all cuts in one pass; it must still name the first
    # cut that is no topology.
    with pytest.raises(NotATopology) as err:
        reconstruct(decompose(PSpace(n, table)))
    assert err.value.defect == defect
    assert str(err.value) == "chain member is not a topology: " + " ".join(map(str, defect))

