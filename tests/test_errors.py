"""Every public function reports bad arguments with a PtopError."""

import pytest

from ptop import (
    InvalidArgument,
    LevelChain,
    PointMap,
    PtopError,
    WeightTable,
    parse_mask_token,
    random_pspace,
)
from ptop.fileio import _parse_probability_token

TOPO = frozenset({0, 3})


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
    ],
)
def test_argument_errors_are_ptop_errors_and_value_errors(call, message):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, PtopError) and isinstance(err.value, ValueError)
    assert str(err.value) == message
