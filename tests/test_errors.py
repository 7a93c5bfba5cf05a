"""Every public function reports bad arguments with a PtopError."""

from array import array
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from pathlib import Path
import subprocess
import sys
from typing import Iterator

from hypothesis import given, settings
import numpy as np
import pytest

from ptop import (
    CapExceeded,
    Cover,
    InvalidArgument,
    LevelChain,
    MaskOutOfRange,
    N_MAX,
    NotASubset,
    PointMap,
    PointOutOfRange,
    PSpace,
    ProbabilityOutOfRange,
    PtopError,
    SplitMix64,
    WeightTable,
    as_pspace,
    bits,
    build,
    complete,
    compose,
    compress,
    connectivity_threshold,
    decompose,
    disconnection_witness,
    format_probability,
    full_mask,
    identity_map,
    inclusion_map,
    is_qconnected,
    level_cut,
    min_subcover,
    parse_mask_token,
    parse_pmap,
    parse_pspace,
    prob,
    q_open,
    qcover_witness,
    from_topology,
    random_pspace,
    reconstruct,
    serialize_pmap,
    serialize_pspace,
    subspace,
    topology_closure,
    topology_defect,
    verify_exhaustive,
    verify_pairwise,
)
from ptop.fileio import _parse_probability_token
import ptop
from oracles import Counted, brute_topology_defect, is_classical_topology, spiked_tables

TOPO = frozenset({0, 3})
W2 = WeightTable(2, (1.0, 0.0, 0.0, 1.0))
P2 = as_pspace(W2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WeightTable(2, (1.0,)), "table for ground size 2 needs 4 entries, got 1"),
        (lambda: PointMap(2, 1, (0,)), "map on 2 points needs 2 images, got 1"),
        (lambda: LevelChain(2, (), (), 0.0).validate(), "a level chain needs at least one level"),
        (
            lambda: LevelChain(2, (1.0,), (TOPO, TOPO), 0.0).validate(),
            "levels and topologies differ in length",
        ),
        (
            lambda: LevelChain(2, (1.0, 0.5), (TOPO, TOPO), 0.0).validate(),
            "levels must be strictly increasing",
        ),
        (lambda: LevelChain(2, (0.5,), (TOPO,), 0.0).validate(), "the last level must be 1"),
        (lambda: random_pspace(3, 0, 0), "level count must be at least 1, got 0"),
        (lambda: parse_mask_token("ten"), "bad mask literal 'ten'"),
        (lambda: _parse_probability_token("1_0"), "bad probability literal '1_0'"),
        (lambda: _parse_probability_token("half"), "bad probability literal 'half'"),
        (lambda: WeightTable(2.0, W2.table), "ground size must be an integer, got 2.0"),
        (lambda: build(2, [(1.5, 0.5)]), "mask must be an integer, got 1.5"),
        (lambda: prob(W2, 1.5), "mask must be an integer, got 1.5"),
        (lambda: Cover(2, (1.5, 3)), "cover member must be an integer, got 1.5"),
        (lambda: PointMap(2, 2, (0, 1.5)), "image must be an integer, got 1.5"),
        (lambda: q_open(P2, 1.5, 0.5), "mask must be an integer, got 1.5"),
        (lambda: subspace(P2, 1.5), "mask must be an integer, got 1.5"),
        (lambda: compress(1.5, 3), "mask must be an integer, got 1.5"),
        (lambda: compress(1, 3.0), "mask must be an integer, got 3.0"),
        (lambda: level_cut(P2, "0.5"), "threshold must be a real number, got '0.5'"),
        (lambda: q_open(P2, 1, None), "threshold must be a real number, got None"),
        (lambda: level_cut(P2, 0.5j), "threshold must be a real number, got 0.5j"),
        (lambda: level_cut(P2, np.array([0.5])), "threshold must be a real number, got array([0.5])"),
        (
            lambda: LevelChain(2, ("0.5", 1.0), (TOPO, TOPO), 0.0).validate(),
            "level must be a real number, got '0.5'",
        ),
        (lambda: disconnection_witness(P2, "0.5"), "threshold must be a real number, got '0.5'"),
        (lambda: disconnection_witness(P2, None), "threshold must be a real number, got None"),
        (
            lambda: disconnection_witness(P2, np.array([0.5, 0.2])),
            "threshold must be a real number, got array([0.5, 0.2])",
        ),
        (lambda: qcover_witness(P2, Cover(2, (3,)), "1"), "threshold must be a real number, got '1'"),
        (lambda: qcover_witness(P2, Cover(2, (3,)), 1 + 0j), "threshold must be a real number, got (1+0j)"),
        (lambda: from_topology(2, [0, 1.5, 3]), "mask must be an integer, got 1.5"),
        (lambda: topology_defect(2, [0, "a", 3]), "mask must be an integer, got 'a'"),
        (lambda: topology_closure(2, [None]), "mask must be an integer, got None"),
        (
            lambda: LevelChain(2, (1.0,), (frozenset({0, 3, 2.0}),), 0.0).validate(),
            "mask must be an integer, got 2.0",
        ),
        (lambda: build(1, [(1, "x")]), "value for mask 1 must be a real number, got 'x'"),
        (lambda: build(1, [(1, None)]), "value for mask 1 must be a real number, got None"),
        (lambda: build(1, [(1, "0.5")]), "value for mask 1 must be a real number, got '0.5'"),
        (lambda: topology_defect(2, 5), "mask family must be iterable, got 5"),
        (lambda: LevelChain(2, (1.0,), (5,), 0.0).validate(), "mask family must be iterable, got 5"),
        (lambda: LevelChain(2, 5, (TOPO,), 0.0).validate(), "levels must be iterable, got 5"),
        (lambda: LevelChain(2, (1.0,), (TOPO,), "0").validate(), "base must be a real number, got '0'"),
        (lambda: Cover(2, 5), "cover members must be iterable, got 5"),
        (lambda: PointMap(2, 2, 5), "image must be iterable, got 5"),
        (lambda: build(2, 5), "entries must be iterable, got 5"),
        (lambda: build(2, [5]), "entry must be a (mask, value) pair, got 5"),
        (lambda: random_pspace(3, 1.5, 0), "level count must be an integer, got 1.5"),
        (lambda: random_pspace(3, 1, None), "seed must be an integer, got None"),
        (lambda: full_mask(1.5), "ground size must be an integer, got 1.5"),
        (lambda: list(bits(1.5)), "mask must be an integer, got 1.5"),
        (lambda: format_probability(None), "probability must be a real number, got None"),
        (lambda: SplitMix64(1).below(0), "bound must be at least 1, got 0"),
        (lambda: SplitMix64(1).below(None), "bound must be an integer, got None"),
        (lambda: as_pspace(None), "expected a weight table, got None"),
        (lambda: verify_pairwise(None), "expected a weight table, got None"),
        (lambda: complete(None), "expected a weight table, got None"),
        (lambda: decompose(None), "expected a weight table, got None"),
        (lambda: serialize_pspace(5), "expected a weight table, got 5"),
        (lambda: reconstruct(5), "expected a level chain, got 5"),
        (lambda: level_cut(None, 0.5), "expected a weight table, got None"),
        (lambda: prob(5, 1), "expected a weight table, got 5"),
        (
            lambda: prob(np.array(10**5000, dtype=object), 1),
            "expected a weight table, got <ndarray too long to print>",
        ),
        (lambda: min_subcover(None), "expected a cover, got None"),
        (lambda: qcover_witness(P2, 5, 0.5), "expected a cover, got 5"),
        (lambda: is_qconnected(None, 0.5), "expected a weight table, got None"),
        (lambda: is_qconnected(P2, "x"), "threshold must be a real number, got 'x'"),
        (lambda: compose(PointMap(1, 1, (0,)), None), "expected a point map, got None"),
        (lambda: serialize_pmap(5), "expected a point map, got 5"),
        (lambda: parse_pspace(None), "document must be a str, got None"),
        (lambda: parse_pmap(b"pmap 1"), "document must be a str, got b'pmap 1'"),
    ],
)
def test_argument_errors_are_ptop_errors_and_value_errors(call, message):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, PtopError) and isinstance(err.value, ValueError)
    assert str(err.value) == message


def test_below_rejects_a_bad_bound_before_drawing():
    rng = SplitMix64(3)
    for bound in (0, -1, None, 1.5):
        with pytest.raises(InvalidArgument):
            rng.below(bound)
    assert rng.state == SplitMix64(3).state
    assert rng.below(np.int64(7)) == SplitMix64(3).below(7)


def test_ints_beyond_the_float_range_are_out_of_range():
    big = 2**1100
    p = as_pspace(build(1, []))
    for call, message in [
        (lambda: build(1, [(1, big)]), f"value for mask 1 {big!r} is beyond the float range"),
        (lambda: build(1, [(1, -big)]), f"value for mask 1 {-big!r} is beyond the float range"),
        (lambda: format_probability(big), f"probability {big!r} is beyond the float range"),
        (lambda: disconnection_witness(p, big), f"threshold {big!r} is beyond the float range"),
        (lambda: level_cut(p, big), f"threshold {big!r} is beyond the float range"),
    ]:
        with pytest.raises(ProbabilityOutOfRange) as err:
            call()
        assert str(err.value) == message
    with pytest.raises(InvalidArgument) as err:
        WeightTable(1, (1.0, big))
    assert str(err.value) == (
        "table for ground size 1 must list real numbers (int too large to convert to float)"
    )
    # Plain ints in the float range still pass build's values.
    assert build(1, [(1, 1)]).table == (1.0, 1.0)


def test_ints_past_the_decimal_digit_limit_are_named_in_hex():
    # str() refuses ints of more than 4,300 digits by default; messages name
    # such an int in hex instead of leaking str()'s ValueError.
    huge = 1 << 20000
    p = as_pspace(build(1, []))
    for call, error, message in [
        (lambda: prob(p, huge), MaskOutOfRange, f"mask {huge:#x} out of range for ground size 1"),
        (lambda: full_mask(-huge), MaskOutOfRange, f"ground size must be non-negative, got {-huge:#x}"),
        (lambda: compress(huge, 3), NotASubset, f"mask {huge:#x} is not contained in 3"),
        (lambda: PointMap(1, 1, (huge,)), PointOutOfRange, f"image {huge:#x} of point 0 outside ground set of size 1"),
        (lambda: random_pspace(1, huge, 0), CapExceeded, f"level count {huge:#x} exceeds cap 2^{N_MAX}"),
        (lambda: level_cut(p, huge), ProbabilityOutOfRange, f"threshold {huge:#x} is beyond the float range"),
    ]:
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


def test_other_numbers_too_long_to_print_are_named_by_their_type():
    # repr refuses a Fraction whose numerator or denominator passes the digit
    # limit; its message holds a placeholder, with no memory address.
    p = as_pspace(build(1, []))
    for call, error, message in [
        (
            lambda: level_cut(P3, Fraction(2**20000 + 1, 2**20000)),
            ProbabilityOutOfRange,
            "threshold <Fraction too long to print> not in [0, 1]",
        ),
        (
            lambda: level_cut(p, Fraction(2**20000)),
            ProbabilityOutOfRange,
            "threshold <Fraction too long to print> is beyond the float range",
        ),
        (
            lambda: q_open(p, 1, np.array(10**5000, dtype=object)),
            InvalidArgument,
            "threshold must be a real number, got <ndarray too long to print>",
        ),
        # A printable real beyond the float range is named by its repr.
        (
            lambda: level_cut(p, Fraction(2**1100)),
            ProbabilityOutOfRange,
            f"threshold Fraction({2**1100}, 1) is beyond the float range",
        ),
    ]:
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


def test_level_count_is_capped_at_the_most_values_a_table_holds():
    with pytest.raises(CapExceeded) as err:
        random_pspace(3, 2**70, 0)
    assert str(err.value) == f"level count {2**70} exceeds cap 2^{N_MAX}"
    with pytest.raises(CapExceeded):
        random_pspace(3, (1 << N_MAX) + 1, 0)


def test_only_the_listing_cap_carries_a_violation():
    # A capped listing carries the checkpoint's one violation (test_cli);
    # the ground-size, family-scan and level-count caps have none to carry.
    for call in (lambda: build(N_MAX + 1, []), lambda: verify_exhaustive(build(5, [])), lambda: random_pspace(3, 2**70, 0)):
        with pytest.raises(CapExceeded) as err:
            call()
        assert err.value.violation is None


def test_numpy_integers_pass_as_sizes_masks_and_points():
    n = np.int64(2)
    assert WeightTable(n, W2.table) == W2
    assert build(n, [(np.int32(1), 0.5)]).table == (1.0, 0.5, 0.0, 1.0)
    assert prob(W2, np.uint8(3)) == 1.0
    assert Cover(n, (np.int64(1), np.int16(3))).members == (1, 3)
    assert PointMap(n, n, np.array([1, 0])).image == (1, 0)


@pytest.mark.parametrize(
    "table",
    [
        np.zeros((2, 2)), ("a", 1.0), (1.0, None), (1.0, 1j), 5,
        # text that float() would parse
        ("1", 1.0), (1.0, b"1"), ("1_0", 1.0), (" 1 ", 1.0), (1.0, bytearray(b"1")), (memoryview(b"1"), 1.0),
        (array("b", b"1"), 1.0), (1.0, array("B", b"0.5")),
    ],
)
def test_tables_of_non_numbers_are_invalid_arguments(table):
    with pytest.raises(InvalidArgument) as err:
        WeightTable(1, table)
    assert str(err.value).startswith("table for ground size 1 must list real numbers (")


def test_text_entries_are_named_and_plain_floats_kept():
    # build and the file reader refuse text as a value, so the constructor
    # does too, naming the first text entry; a plain float entry is kept as
    # the same object, so a NaN stays the NaN given.
    for n, table, named in [(1, ("1_0", 1.0), "'1_0'"), (2, (1.0, 0.5, b"1", "1"), "b'1'")]:
        with pytest.raises(InvalidArgument) as err:
            WeightTable(n, table)
        assert str(err.value).endswith(f"must list real numbers (got {named})")
    with pytest.raises(InvalidArgument):
        PSpace(1, ("1", b"1"))
    nan = float("nan")
    assert WeightTable(1, (nan, 1.0)).table[0] is nan
    assert WeightTable(1, (np.float64(0.5), 1)).table == (0.5, 1.0)
    # float() parses as text only what has neither __float__ nor __index__.
    for entry, value in [
        (Decimal("0.1"), 0.1), (Fraction(1, 3), 1 / 3), (np.array(0.5), 0.5),
        (np.float32(0.5), 0.5), (np.int64(1), 1.0), (True, 1.0),
    ]:
        assert WeightTable(1, (entry, 1.0)).table == (value, 1.0)


def test_real_thresholds_keep_their_answers():
    # Only the type is checked where the range never was: -inf, values out of
    # [0, 1] and NaN still answer, and numpy scalars and 0-d arrays pass.
    p1 = as_pspace(build(1, []))
    assert disconnection_witness(p1, connectivity_threshold(p1)) is None
    p = random_pspace(3, 3, 5)
    split = disconnection_witness(p, connectivity_threshold(p))
    assert split is not None
    assert disconnection_witness(p, float("-inf")) == (1, 6)
    assert disconnection_witness(p, 1.5) is None
    assert disconnection_witness(p, float("nan")) is None
    assert disconnection_witness(p, np.float32(-1)) == (1, 6)
    assert level_cut(p, np.array(0.5)) == level_cut(p, 0.5) == level_cut(p, np.float64(0.5))
    cover = Cover(3, (7,))
    assert qcover_witness(p, cover, 2.0).kind == "low-probability"
    assert qcover_witness(p, cover, float("-inf")) is None
    assert qcover_witness(p, cover, np.array(1)) is None


def test_integer_members_keep_their_range_errors():
    # Bools and numpy integers pass as members; among plain integers the
    # least member's range error comes first, then the greatest's.
    assert from_topology(2, [np.int64(0), True, np.uint8(3)]) == from_topology(2, [0, 1, 3])
    assert topology_defect(2, (False, np.int32(2), 3)) is None
    for members, message in [
        ([-1, 0, 3, 9], "mask -1 out of range for ground size 2"),
        ([0, 3, 9], "mask 9 out of range for ground size 2"),
        ([0, 3, 2**70], f"mask {2**70} out of range for ground size 2"),
        ([-(2**70), 0, 3, 2**70], f"mask {-(2**70)} out of range for ground size 2"),
        ([0, np.int64(-3), 3], "mask -3 out of range for ground size 2"),
    ]:
        with pytest.raises(MaskOutOfRange) as err:
            topology_defect(2, members)
        assert str(err.value) == message


def test_build_takes_real_values_of_any_numeric_type():
    for value in (0.5, np.float32(0.5), np.float64(0.5), np.array(0.5), Fraction(1, 2)):
        assert build(1, [(1, value)]).table == (1.0, 0.5)
    assert build(1, [(1, True)]).table == (1.0, 1.0)
    assert build(1, [(1, np.int8(0))]).table == (1.0, 0.0)


# Numbers whose repr raises ValueError: an int of a Fraction, or the int in a
# 0-d object array, has more digits than CPython converts.
TOO_LONG = (Fraction(2**20000), Fraction(2**20000 + 1, 2**20000), np.array(10**5000, dtype=object))
# Tried on every numeric parameter; collection parameters also get the int 5.
HOSTILE = (1.5, "0.5", None, np.zeros((2, 2)), -1, 2**70, 2**1100, float("nan"), *TOO_LONG)
P3 = as_pspace(build(2, [(1, 0.5), (2, 0.25)]))
COVER = Cover(2, (1, 2, 3))
SWAP = PointMap(2, 2, (1, 0))
CHAIN_ARGS = (2, (0.5, 1.0), (frozenset({0, 1, 3}), frozenset({0, 3})), 0.25)

# One valid call per public callable of ptop.  The sweep replaces one numeric
# or collection argument at a time.  Objects (spaces, maps, covers, chains,
# the rng) get None, the int 5 and TOO_LONG only: their own constructors are swept.
# Text keeps its value: the parsers' documents and tokens have their own
# tests (test_fileio.py), and a report kind is a label that no function reads.
SWEEP_CALLS = {
    "Cover": (2, (1, 2, 3)),
    "CoverDefect": ("uncovered-point", 0, None),
    "FamilyViolation": ("union", (1, 2), 0.5, 0.25),
    "LevelChain": CHAIN_ARGS,
    "PSpace": (2, (1.0, 0.5, 0.25, 1.0)),
    "PointMap": (2, 2, (1, 0)),
    "SplitMix64": (7,),
    "ViolationReport": ("union", 1, 2, 0.5, 0.25),
    "WeightTable": (2, (1.0, 0.5, 0.25, 1.0)),
    "as_pspace": (W2,),
    "bits": (5,),
    "build": (2, [(1, 0.5), (2, 0.25)]),
    "complete": (W2,),
    "compose": (SWAP, SWAP),
    "compress": (1, 3),
    "connectivity_threshold": (P3,),
    "continuity_witness": (SWAP, P3, P3),
    "decompose": (P3,),
    "disconnection_witness": (P3, 0.25),
    "format_probability": (0.5,),
    "from_topology": (2, [0, 1, 3]),
    "full_mask": (2,),
    "identity_map": (2,),
    "inclusion_map": (1, 2),
    "is_pcontinuous": (SWAP, P3, P3),
    "is_qconnected": (P3, 0.5),
    "level_cut": (P3, 0.5),
    "min_subcover": (COVER,),
    "parse_mask_token": ("0b11",),
    "parse_pmap": ("pmap 1\ndom 1\ncod 1\n0 0\n",),
    "parse_pspace": ("ptop 1\nn 1\n",),
    "preimage": (SWAP, 1),
    "prob": (P3, 1),
    "q_open": (P3, 1, 0.5),
    "qcover_witness": (P3, COVER, 0.25),
    "random_pspace": (3, 2, 7),
    "reconstruct": (LevelChain(*CHAIN_ARGS),),
    "serialize_pmap": (SWAP,),
    "serialize_pspace": (P3,),
    "subspace": (P3, 1),
    "topology_closure": (3, [1, 6]),
    "topology_defect": (2, [0, 1, 3]),
    "verify_exhaustive": (W2,),
    "verify_pairwise": (W2,),
}


def _settle(result):
    """Run what a call deferred: a chain's validation, and a generator's first items."""
    if isinstance(result, LevelChain):
        result.validate()
    elif isinstance(result, Iterator):
        list(islice(result, 1000))


def hostile_argument_leaks() -> list[str]:
    """Each swept call that raised anything but a PtopError, as 'name argument i value j: error'.

    The call is named by indices, since the repr of a TOO_LONG value raises.
    """
    leaks = []
    for name, args in SWEEP_CALLS.items():
        func = getattr(ptop, name)
        _settle(func(*args))  # the valid call itself must succeed
        for i, arg in enumerate(args):
            if isinstance(arg, (list, tuple, set, frozenset)):
                values = HOSTILE + (5,)
            elif isinstance(arg, (int, float)):
                values = HOSTILE
            elif isinstance(arg, str):
                continue
            else:
                values = (None, 5, *TOO_LONG)
            for j, value in enumerate(values):
                call = args[:i] + (value,) + args[i + 1 :]
                try:
                    _settle(func(*call))
                except PtopError:
                    pass
                except Exception as exc:
                    leaks.append(f"{name} argument {i} value {j}: {type(exc).__name__}: {exc}")
    return leaks


def test_hostile_arguments_raise_only_ptop_errors_in_a_child():
    # Every public callable is swept; a new one needs its valid call above.
    public = {
        name
        for name, obj in vars(ptop).items()
        if not name.startswith("_")
        and callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert public == SWEEP_CALLS.keys()
    # A child with a timeout turns a hang into a failure instead of a stalled suite.
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(ptop.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {tests!r}]\n"
        "from test_errors import hostile_argument_leaks\n"
        "print(hostile_argument_leaks())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _raises_part_way(masks):
    """A one-shot iterator over ``masks`` that raises TypeError after the first one."""
    yield from masks[:1]
    raise TypeError("read part-way")


# The forms a family of masks takes, made from its masks, and whether the
# family can be read in full.
FAMILY_FORMS = [
    (frozenset, True),
    (list, True),
    (tuple, True),
    (lambda masks: np.array(masks, dtype=np.int64), True),
    (iter, True),  # read once
    (_raises_part_way, False),
]
# Families on two points: topologies, one that is none, and one out of range.
FAMILIES = [(0, 1, 2, 3), (0, 1, 3), (0, 3), (0, 1, 2), (0, 3, 4)]
FULL = frozenset(range(4))


def _chain(position, family):
    """A two-member chain on two points holding ``family`` at ``position``."""
    members = (family, frozenset({0, 3})) if position == 0 else (FULL, family)
    return LevelChain(2, (0.5, 1.0), members, 0.0)


def _verified(call, accept) -> bool:
    """True when ``call`` raises a PtopError or returns an object that ``accept`` accepts without raising one."""
    try:
        out = call()
    except PtopError:
        return True
    try:
        return accept(out)
    except PtopError:
        return False


def test_mask_readers_raise_or_return_verified_objects():
    # Each family in each form, alone and at either position of a two-member
    # chain: a call raises a PtopError or returns an object that passes its
    # verifier.  A family that cannot be read in full never passes.
    failures = []

    def expect(name, call, accept):
        if not _verified(call, accept):
            failures.append(f"{name} of {masks} in form {form}")

    for masks in FAMILIES:
        for form, (make, whole) in enumerate(FAMILY_FORMS):
            ok = whole and all(m < 4 for m in masks)
            expect(
                "topology_defect",
                lambda: topology_defect(2, make(masks)),
                lambda d: ok and d == brute_topology_defect(2, masks),
            )
            expect(
                "topology_closure",
                lambda: topology_closure(2, make(masks)),
                lambda t: ok and topology_defect(2, t) is None,
            )
            expect("from_topology", lambda: from_topology(2, make(masks)), lambda p: ok and verify_pairwise(p) == [])
            for position in (0, 1):
                tables = [set(t) for t in _chain(position, masks).topologies]
                nested = all(is_classical_topology(2, t) for t in tables) and tables[1] <= tables[0]
                expect(f"validate at {position}", lambda: _chain(position, make(masks)).validate(), lambda _: ok and nested)
                expect(
                    f"reconstruct at {position}",
                    lambda: reconstruct(_chain(position, make(masks))),
                    lambda p: ok and verify_pairwise(p) == [],
                )
    assert failures == []


@pytest.mark.parametrize("masks", [(0, 1, 3), (0, 1, 2), (0, 1.5, 3), (0, 3, 9), (0, 3, 2**70)])
def test_each_family_is_iterated_once(masks):
    # A family's error is worded from the masks read, not by reading it again.
    for call in (
        lambda f: topology_defect(2, f),
        lambda f: topology_closure(2, f),
        lambda f: from_topology(2, f),
        lambda f: LevelChain(2, (0.5, 1.0), (f, frozenset({0, 3})), 0.0).validate(),
        lambda f: reconstruct(LevelChain(2, (0.5, 1.0), (FULL, f), 0.0)),
    ):
        family = Counted(masks)
        try:
            call(family)
        except PtopError:
            pass
        assert family.reads == 1


def _is_space(p) -> bool:
    """``p`` is a valid space with a plain int size, and its text reads back as it."""
    back = as_pspace(parse_pspace(serialize_pspace(p)))
    return type(p) is PSpace and type(p.n) is int and verify_pairwise(p) == [] and back == p


def _is_chain(chain) -> bool:
    chain.validate()
    return type(chain) is LevelChain and type(chain.n) is int


def _is_cover(cover) -> bool:
    return type(cover.n) is int and Cover(cover.n, cover.members) == cover


def _is_map(f) -> bool:
    sizes = type(f.domain_n) is int and type(f.codomain_n) is int
    return sizes and parse_pmap(serialize_pmap(f)) == f


def output_failures(n, table) -> list[str]:
    """Each call made from the table (n, table) that returns an object failing its verifier.

    Every public callable that returns a space, a level chain, a cover or a
    point map gets the table, its level cuts and its masks; each call must
    raise a PtopError or return an object that passes its verifier above.
    """
    failures = []

    def expect(name, call, accept):
        try:
            ok = _verified(call, accept)
        except Exception as exc:  # an error that is no PtopError
            ok = exc
        if ok is not True:
            failures.append(f"{name} of ({n!r}, {table!r}){'' if ok is False else f': {ok!r}'}")

    w = WeightTable(n, table)
    size = len(table)
    levels = tuple(sorted({v for v in table if 0.0 < v <= 1.0}))
    cuts = tuple(level_cut(w, q) for q in levels)
    expect("PSpace", lambda: PSpace(n, table), _is_space)
    expect("as_pspace", lambda: as_pspace(w), _is_space)
    expect("complete", lambda: complete(w), _is_space)
    expect("decompose", lambda: decompose(w), lambda c: _is_chain(c) and reconstruct(c) == as_pspace(w))
    expect("reconstruct", lambda: reconstruct(LevelChain(n, levels, cuts, 0.0 if 0.0 in table else None)), _is_space)
    expect("random_pspace", lambda: random_pspace(n, 3, size), _is_space)
    expect("identity_map", lambda: identity_map(n), _is_map)
    for cut in cuts:
        expect("from_topology", lambda: from_topology(n, cut), _is_space)
        expect("Cover", lambda: Cover(n, sorted(cut)), _is_cover)
        expect("min_subcover", lambda: min_subcover(Cover(n, sorted(cut))), _is_cover)
    for y in range(size):
        expect("subspace", lambda: subspace(w, y), _is_space)
        expect("inclusion_map", lambda: inclusion_map(y, n), _is_map)
        expect("compose", lambda: compose(inclusion_map(y, n), identity_map(n)), _is_map)
        expect("PointMap", lambda: PointMap(n, y.bit_count(), [0] * n if y else []), _is_map)
        expect("parse_pmap", lambda: parse_pmap(serialize_pmap(inclusion_map(y, n))), _is_map)
    return failures


# The names output_failures calls: every public callable returning a space, a
# cover or a point map, and decompose.  LevelChain(...) is left out: like
# WeightTable(...), it records its arguments, and validate() checks them.
OUTPUT_SWEPT = {
    "PSpace", "as_pspace", "complete", "decompose", "reconstruct", "random_pspace", "identity_map",
    "from_topology", "Cover", "min_subcover", "subspace", "inclusion_map", "compose", "PointMap",
    "parse_pmap",
}
# Seeded valid spaces, then edge tables: signed zeros, ties, n = 0 and 1,
# bool and numpy sizes, and tables that fail the axioms.
OUTPUT_TABLES = [
    *((n, random_pspace(n, k, 2200 + n).table) for n, k in ((0, 1), (1, 2), (2, 3), (3, 3), (4, 5))),
    (0, (1.0,)),
    (1, (1.0, 1.0)),
    (True, (1.0, 1.0)),
    (np.int64(1), (1.0, -0.0)),
    (np.uint8(2), (1.0, 0.5, 0.5, 1.0)),
    (2, (1.0, -0.0, 0.0, 1.0)),
    (2, (-0.0, 0.5, 0.5, 1.0)),
    (2, (1.0, 0.5, 0.9, 0.3)),
    (3, (1.0, 0.5, 0.5, 0.5, -0.0, 0.5, 0.0, 1.0)),
    (3, (1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0)),
]


def test_the_output_sweep_covers_every_callable_returning_a_checked_object():
    kinds = {"PSpace", "LevelChain", "Cover", "PointMap"}
    returning = {
        name
        for name, obj in vars(ptop).items()
        if not name.startswith("_")
        and callable(obj)
        and (name in kinds - {"LevelChain"} or getattr(obj, "__annotations__", {}).get("return") in kinds)
    }
    assert returning == OUTPUT_SWEPT


def test_outputs_pass_their_verifiers_on_seeded_and_edge_tables():
    assert [f for n, table in OUTPUT_TABLES for f in output_failures(n, table)] == []


@settings(max_examples=60, deadline=None)
@given(spiked_tables(max_n=4))
def test_outputs_pass_their_verifiers_on_spiked_tables(w):
    assert output_failures(w.n, w.table) == []


def test_ground_sizes_are_stored_as_plain_ints():
    one = frozenset({0, 1})
    p = reconstruct(LevelChain(True, (1.0,), (one,), None))
    assert serialize_pspace(p) == "ptop 1\nn 1\n" and as_pspace(parse_pspace(serialize_pspace(p))) == p
    for x, sizes in [
        (p, ("n",)),
        (WeightTable(True, (1.0, 1.0)), ("n",)),
        (PSpace(np.int64(1), (1.0, 1.0)), ("n",)),
        (from_topology(True, one), ("n",)),
        (random_pspace(np.uint8(3), 2, 1), ("n",)),
        (Cover(np.int64(2), (3,)), ("n",)),
        (PointMap(np.int64(2), True, (0, 0)), ("domain_n", "codomain_n")),
        (inclusion_map(1, np.int32(2)), ("domain_n", "codomain_n")),
    ]:
        assert all(type(getattr(x, size)) is int for size in sizes), x


def test_a_numpy_ground_size_acts_as_its_value():
    # 1 << np.uint8(8) is 0 in numpy's arithmetic, so every use of a ground
    # size must take the plain int that check_ground_size returns.
    chain = ((1.0,), (frozenset({0, 255}),))
    for call in (
        lambda n: build(n, [(255, 0.5)]),
        full_mask,
        lambda n: inclusion_map(255, n),
        lambda n: topology_defect(n, [0, 1, 255]),
        lambda n: from_topology(n, [0, 255]),
        lambda n: topology_closure(n, [1]),
        lambda n: random_pspace(n, 2, 1),
        lambda n: reconstruct(LevelChain(n, *chain, 0.0)),
    ):
        assert call(np.uint8(8)) == call(8)
