import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from ptop import (
    ChainNotNested,
    InvalidArgument,
    LevelChain,
    MaskOutOfRange,
    MissingBase,
    NotAPSpace,
    NotATopology,
    ProbabilityOutOfRange,
    PSpace,
    PtopError,
    WeightTable,
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
    Counted,
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


def test_one_shot_members_that_fail_to_build_name_their_own_error():
    # A member is read once: the build error comes from what was read, not
    # from a second pass over an exhausted iterator (which built an empty
    # member, so the chain passed or was wrongly called not nested).
    for chain, error, message in [
        (lambda: LevelChain(2, (1.0,), (iter([0, 1.5, 3]),), None), InvalidArgument, "mask must be an integer, got 1.5"),
        (
            lambda: LevelChain(2, (0.5, 1.0), (iter([0, 1, 2, 3.5]), frozenset({0, 3})), 0.0),
            InvalidArgument,
            "mask must be an integer, got 3.5",
        ),
        (lambda: LevelChain(2, (1.0,), (iter([0, 3, 9]),), 0.0), MaskOutOfRange, "mask 9 out of range for ground size 2"),
    ]:
        for check in (LevelChain.validate, reconstruct):
            with pytest.raises(error) as err:
                check(chain())
            assert str(err.value) == message
    chain = LevelChain(2, (0.5, 1.0), (iter([0, 1, 3]), iter([0, 3])), 0.2)
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


def test_a_bad_size_is_named_before_a_bad_level():
    # The mask reader checks the size too, but only after the levels; the
    # chain checks it first.
    for levels in ((), (2.0,), (0.5,)):
        for check in (LevelChain.validate, reconstruct):
            with pytest.raises(MaskOutOfRange) as err:
                check(LevelChain(-1, levels, (), None))
            assert str(err.value) == "ground size must be non-negative, got -1"


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


def assert_decomposed_into_level_cuts(p):
    chain = decompose(p)
    values = set(p.table)  # -0.0 and 0.0 are one value
    assert chain.levels == tuple(sorted(v for v in values if v != 0.0))
    assert repr(chain.base) == ("0.0" if 0.0 in values else "None")
    assert chain.topologies == tuple(level_cut(p, q) for q in chain.levels)


def test_decompose_cuts_are_level_cuts_on_generated_spaces():
    for n in range(13):
        for k, seed in ((1, n), (3, 100 + n), (2 + n, 200 + n)):
            assert_decomposed_into_level_cuts(random_pspace(n, k, seed))
    assert_decomposed_into_level_cuts(random_pspace(16, 6, 1600))


@pytest.mark.parametrize(
    "n, table",
    [
        (0, (1.0,)),
        (1, (1.0, 1.0)),
        (2, (1.0, -0.0, 0.0, 1.0)),
        (2, (1.0, 0.0, -0.0, 1.0)),
        (3, (1.0, 0.5, 0.5, 0.5, -0.0, 0.5, 0.0, 1.0)),
        (3, (1.0, 0.25, 0.75, 0.25, 0.75, 0.25, 0.75, 1.0)),
    ],
)
def test_decompose_cuts_are_level_cuts_on_signed_zeros_and_ties(n, table):
    assert_decomposed_into_level_cuts(PSpace(n, table))


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
    for q in sorted(set(w.table)):
        assert is_classical_topology(w.n, level_cut(w, q))
    assert_decomposed_into_level_cuts(w)
    back = reconstruct(decompose(w))
    assert back == as_pspace(w)
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


# The forms a chain member takes, made from a topology's masks on n points,
# with the build error each raises (None: it builds).
MEMBER_FORMS = [
    (lambda topo, n: frozenset(topo), None),
    (lambda topo, n: iter(sorted(topo)), None),  # read once
    (lambda topo, n: [np.int64(m) for m in sorted(topo)], None),
    (lambda topo, n: 5, "InvalidArgument"),
    (lambda topo, n: topo | {0.5}, "InvalidArgument"),
    (lambda topo, n: iter([*sorted(topo), np.float64(3.0)]), "InvalidArgument"),
    (lambda topo, n: topo | {(1 << n) + n % 3}, "MaskOutOfRange"),
    (lambda topo, n: [*sorted(topo), -1 - n % 2], "MaskOutOfRange"),
    (lambda topo, n: [np.uint64(2**63), *sorted(topo)], "MaskOutOfRange"),
    (lambda topo, n: iter([*sorted(topo), 2**70]), "MaskOutOfRange"),
]


def member_outcome(n, forms, topos):
    """The error of checking the members one at a time, first member first, then nesting."""
    for (_, error), topo in zip(forms, topos):
        if error is not None:
            return (error, None)
        defect = brute_topology_defect(n, topo)
        if defect is not None:
            return ("NotATopology", defect)
    if any(not lower <= higher for higher, lower in zip(topos, topos[1:])):
        return ("ChainNotNested", None)
    return None


def chain_members_outcome(n, forms, topos):
    levels = tuple((i + 1) / len(topos) for i in range(len(topos)))
    members = tuple(make(topo, n) for (make, _), topo in zip(forms, topos))
    try:
        LevelChain(n, levels, members, 0.0).validate()
    except PtopError as exc:
        return (type(exc).__name__, getattr(exc, "defect", None))
    return None


@pytest.mark.parametrize("fold_cells", [ptop.core._BLOCK_CELLS, 16], ids=["default", "16"])
def test_chain_members_are_checked_in_order(monkeypatch, fold_cells):
    # Chains of random topologies, some with a mask toggled, some not nested
    # and some holding a member that fails to build (a mask out of range or
    # beyond int64, a member that is no integer, or no collection at all),
    # in every form of MEMBER_FORMS, one-shot iterators included: the members
    # are decided a block at a time, but the error must be that of checking
    # them one at a time, first member first, then nesting.  At 16 cells per
    # block, chains from n = 3 up close in several blocks.
    monkeypatch.setattr(ptop.core, "_BLOCK_CELLS", fold_cells)
    rng = rng_for(1617)
    for _ in range(300):
        n, k = 1 + rng.below(4), 1 + rng.below(4)
        forms, topos = [], []
        for _ in range(k):
            topo = brute_closure(n, [rng.below(1 << n) for _ in range(rng.below(n + 2))])
            if topos and rng.below(2):
                topo &= topos[-1]
            if not rng.below(4):
                topo ^= {rng.below(1 << n)}
            topos.append(topo)
            form = rng.below(4 * len(MEMBER_FORMS))
            forms.append(MEMBER_FORMS[form if form < len(MEMBER_FORMS) else form % 3])
        assert chain_members_outcome(n, forms, topos) == member_outcome(n, forms, topos)
    # Every form after a member that is no topology, and after members that
    # are: at 16 cells per block the last member is read in the second block
    # of rows.
    full, bad = set(range(8)), {0, 1, 2, 7}
    for form in MEMBER_FORMS:
        for third in (full, bad):
            forms = [MEMBER_FORMS[0]] * 3 + [form]
            topos = [full, full, third, {0, 7}]
            expected = ("NotATopology", ("union", 1, 2)) if third is bad else (form[1], None) if form[1] else None
            assert member_outcome(3, forms, topos) == expected
            assert chain_members_outcome(3, forms, topos) == expected


def test_a_chain_is_read_no_further_than_its_first_bad_block(monkeypatch):
    # At 16 cells per block two members of 8 cells share a block.  The first
    # block holds a member that is no topology, so it is named there and the
    # member in the second block is never read.
    monkeypatch.setattr(ptop.core, "_BLOCK_CELLS", 16)
    third = Counted((0, 7))
    with pytest.raises(NotATopology) as err:
        LevelChain(3, (0.25, 0.5, 1.0), ({0, 1, 2, 7}, set(range(8)), third), 0.0).validate()
    assert err.value.defect == ("union", 1, 2) and third.reads == 0


NAN = float("nan")


@pytest.mark.parametrize(
    "n, table",
    [
        (2, (1.0, NAN, 0.5, 1.0)),
        (2, (NAN, 0.5, 0.25, 1.0)),
        (2, (1.0, -0.5, 0.5, 1.0)),
        (2, (1.0, -0.25, -0.5, 1.0)),
        (2, (1.0, 1.5, -0.0, 1.0)),
        (2, (1.0, 2.0, 1.5, 1.0)),
        (2, (1.0, float("inf"), 0.5, 1.0)),
        (2, (1.0, NAN, -0.5, 1.0)),
        (2, (NAN, 1.5, NAN, 1.0)),
        (2, (1.0, float("inf"), NAN, 1.0)),
        # boundaries at -0.0 and 0.0
        (2, (-0.0, 0.5, 0.5, 1.0)),
        (2, (0.0, 0.0, -0.0, 0.0)),
    ],
)
def test_decompose_of_an_invalid_table_raises_not_a_pspace(n, table):
    # A table that is no space is refused where a space is made, by
    # decompose as by the constructor, with as_pspace's message; its level
    # cuts are still the masks valued at least each in-range value.
    w = WeightTable(n, table)
    with pytest.raises(NotAPSpace) as expected:
        as_pspace(w)
    for call in (lambda: decompose(w), lambda: PSpace(n, table)):
        with pytest.raises(NotAPSpace) as err:
            call()
        assert str(err.value) == str(expected.value)
        assert repr(err.value.violation) == repr(expected.value.violation)
    for q in {v for v in table if 0.0 <= v <= 1.0}:
        assert level_cut(w, q) == {m for m, v in enumerate(table) if v >= q}


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
    # The chain of an invalid table's level cuts, as decompose would split a
    # space: reconstruct closes all cuts in one pass; it must still name the
    # first cut that is no topology.
    w = WeightTable(n, table)
    levels = tuple(sorted(set(table) - {0.0}))
    cuts = tuple(level_cut(w, q) for q in levels)
    with pytest.raises(NotATopology) as err:
        reconstruct(LevelChain(n, levels, cuts, 0.0 if 0.0 in table else None))
    assert err.value.defect == defect
    assert str(err.value) == "chain member is not a topology: " + " ".join(map(str, defect))

