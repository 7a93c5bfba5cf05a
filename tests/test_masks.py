import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st
import pytest

import ptop
from ptop import (
    MaskOutOfRange,
    NotASubset,
    PointMap,
    bits,
    compress,
    full_mask,
    preimage,
)


def test_preimage_examples():
    assert preimage(PointMap(2, 1, (0, 0)), 0b1) == 0b11
    assert preimage(PointMap(2, 1, (0, 0)), 0b0) == 0b00
    assert preimage(PointMap(3, 2, (1, 0, 1)), 0b10) == 0b101


def test_preimage_rejects_out_of_range_mask():
    with pytest.raises(MaskOutOfRange):
        preimage(PointMap(2, 1, (0, 0)), 0b10)


def test_compress_examples():
    assert compress(0b100, 0b101) == 0b10
    assert compress(0b000, 0b101) == 0b00
    assert compress(0b101, 0b101) == 0b11
    with pytest.raises(NotASubset):
        compress(0b010, 0b101)


def test_compress_and_decompress_match_a_plain_loop():
    # Bit k of compress(a, y) is the bit of a at the k-th lowest point of y.
    for y in range(1 << 8):
        for a in range(1 << 8):
            packed, slot = 0, 0
            for i in range(8):
                if y >> i & 1:
                    packed |= (a >> i & 1) << slot
                    slot += 1
            if a & ~y:
                with pytest.raises(NotASubset):
                    compress(a, y)
            else:
                assert compress(a, y) == packed


def test_negative_masks_raise_promptly_in_a_child():
    # A negative int has endless set bits, so a walk over them never ends;
    # a child with a timeout turns such a hang into a failure.
    code = (
        "from ptop import MaskOutOfRange, bits, compress\n"
        "calls = (lambda: list(bits(-1)), lambda: compress(0, -1))\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except MaskOutOfRange as err:\n"
        "        print(err)\n"
    )
    src = str(Path(ptop.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (
        0,
        "mask -1 is negative\nmask -1 is negative\n",
    )


def test_bits_examples():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert list(bits(0)) == []
    with pytest.raises(MaskOutOfRange) as err:
        list(bits(-1))
    assert str(err.value) == "mask -1 is negative"


@given(st.integers(0, (1 << 70) - 1))
def test_bits_lists_the_set_points_in_ascending_order(mask):
    assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


points = st.integers(min_value=0, max_value=5)


@st.composite
def map_and_masks(draw):
    n = draw(points)
    m = draw(st.integers(min_value=1, max_value=5))
    image = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    b1 = draw(st.integers(0, (1 << m) - 1))
    b2 = draw(st.integers(0, (1 << m) - 1))
    return PointMap(n, m, image), b1, b2


@given(map_and_masks())
def test_preimage_is_a_lattice_homomorphism(case):
    f, b1, b2 = case
    assert preimage(f, b1 | b2) == preimage(f, b1) | preimage(f, b2)
    assert preimage(f, b1 & b2) == preimage(f, b1) & preimage(f, b2)
    assert preimage(f, full_mask(f.codomain_n)) == full_mask(f.domain_n)
    assert preimage(f, 0) == 0


@given(st.integers(0, (1 << 8) - 1), st.integers(0, (1 << 8) - 1))
def test_compress_decompress_roundtrip(a, y):
    a &= y
    # Bit k of the compressed mask goes back to the k-th lowest point of y.
    assert sum(1 << i for k, i in enumerate(bits(y)) if compress(a, y) >> k & 1) == a
    assert compress(a, y) < 1 << y.bit_count()


@given(st.integers(0, 8), st.data())
def test_compress_is_onto(n, data):
    y = data.draw(st.integers(0, full_mask(n)))
    k = y.bit_count()
    images = {compress(a, y) for a in range(1 << n) if a & ~y == 0}
    assert images == set(range(1 << k))

