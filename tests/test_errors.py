"""Every public function reports bad arguments with a PtopError."""

import numpy as np
import pytest

from ptop import (
    Cover,
    InvalidArgument,
    LevelChain,
    PointMap,
    PtopError,
    WeightTable,
    as_pspace,
    build,
    compress,
    connectivity_threshold,
    decompress,
    disconnection_witness,
    level_cut,
    parse_mask_token,
    prob,
    q_open,
    qcover_witness,
    random_pspace,
    subspace_prob,
)
from ptop.fileio import _parse_probability_token

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
        (lambda: subspace_prob(P2, 1, 1.5), "mask must be an integer, got 1.5"),
        (lambda: compress(1.5, 3), "mask must be an integer, got 1.5"),
        (lambda: decompress(1.5, 3), "mask must be an integer, got 1.5"),
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
    ],
)
def test_argument_errors_are_ptop_errors_and_value_errors(call, message):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, PtopError) and isinstance(err.value, ValueError)
    assert str(err.value) == message


def test_numpy_integers_pass_as_sizes_masks_and_points():
    n = np.int64(2)
    assert WeightTable(n, W2.table) == W2
    assert build(n, [(np.int32(1), 0.5)]).table == (1.0, 0.5, 0.0, 1.0)
    assert prob(W2, np.uint8(3)) == 1.0
    assert Cover(n, (np.int64(1), np.int16(3))).members == (1, 3)
    assert PointMap(n, n, np.array([1, 0])).image == (1, 0)


@pytest.mark.parametrize("table", [np.zeros((2, 2)), ("a", 1.0), (1.0, None), (1.0, 1j), 5])
def test_tables_of_non_numbers_are_invalid_arguments(table):
    with pytest.raises(InvalidArgument) as err:
        WeightTable(1, table)
    assert str(err.value).startswith("table for ground size 1 must list real numbers (")


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
