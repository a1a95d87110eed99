"""The packed-array codec: bit-identical round trips and a bounded inflate."""

import base64
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iotprint.documents import pack, unpack

SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12)
EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,  # the smallest subnormal
    -sys.float_info.min / 3,  # a subnormal with more bits set
    sys.float_info.max,
    -sys.float_info.max,
)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
ARRAYS = st.one_of(
    hnp.arrays("<f8", SHAPES, elements=FLOATS).map(lambda a: ("<f8", a)),
    hnp.arrays("<i1", SHAPES).map(lambda a: ("<i1", a)),
)


@settings(max_examples=200, deadline=None)
@given(packed=ARRAYS)
@example(packed=("<f8", np.array([EDGE_FLOATS])))
def test_pack_then_unpack_is_bit_identical(packed):
    dtype, array = packed
    doc = pack(array, dtype)
    assert pack(array, dtype) == doc
    back = unpack({"field": doc}, "field", "test", dtype, array.ndim)
    assert back.dtype == array.dtype and back.shape == array.shape
    assert back.tobytes() == array.tobytes()
    assert not back.flags.writeable


def test_a_deflate_bomb_is_refused_without_being_inflated():
    """64 MiB of zeros deflate to about 64 KB; declared as one byte, the
    stream is refused after inflating at most two bytes."""
    bomb = base64.b64encode(zlib.compress(bytes(64 << 20), 6)).decode("ascii")
    doc = {"labels": {"dtype": "<i1", "shape": [1], "data": bomb}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="labels data holds more than the 1 bytes"):
            unpack(doc, "labels", "model", "<i1", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("shape", [(0,), (0, 4), (0, 1, 2)])
def test_only_the_first_axis_may_be_0(shape):
    for dtype in ("<f8", "<i1"):
        doc = pack(np.zeros(shape), dtype)
        assert unpack({"field": doc}, "field", "test", dtype, len(shape)).shape == shape
        for later in range(1, len(shape)):
            moved = {**doc, "shape": [1] * later + [0] + [1] * (len(shape) - later - 1)}
            with pytest.raises(ValueError, match="the first >= 0 and the rest >= 1"):
                unpack({"field": moved}, "field", "test", dtype, len(shape))
