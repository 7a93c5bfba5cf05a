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
    build,
    parse_mask_token,
    prob,
    random_pspace,
)
from ptop.fileio import _parse_probability_token

TOPO = frozenset({0, 3})
W2 = WeightTable(2, (1.0, 0.0, 0.0, 1.0))


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
