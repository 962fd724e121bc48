"""The page codec against its per-value reference.

``tests/reference_codec.py`` is a recursive codec written apart from
the engine's, and it pins the format. The engine's encoder must write
its bytes exactly and the engine's decoder must return its values
exactly: the same type (``int``/``bool``/``float``, ``tuple``/``list``),
the same float bits (-0.0, NaN payloads, infinities) and the same end
offset. On a damaged encoding the decoder must return what the reference
returns, or raise ``StorageError`` where the reference raised anything.

The generated sequences are uniform items of a drawn layout, short and
at page sizes, with a few items replaced by ragged tuples, bools, numpy
scalars, values beyond int64 or items of another layout.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import StorageError
from repro.storage.pages import pack_value, unpack_value
from tests.oracle import examples
from tests.reference_codec import reference_pack, reference_unpack

LENGTHS = [0, 1, 7, 8, 9, 15, 16, 17, 1024, 2048]

NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF0_0000_0000_0001))[0]
NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0000))[0]
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, NAN_PAYLOAD,
                  NEGATIVE_NAN, 5e-324]
INT_ENDS = [0, -1, 2 ** 63 - 1, -2 ** 63, 2 ** 62]
BEYOND_INT64 = [2 ** 63, -2 ** 63 - 1, 2 ** 100]

#: Scalar kinds of a layout leaf: int64, float64 and None, which have
#: fixed-size encodings, and the kinds tagged apart from them.
RECORD_SCALARS = ["int", "float", "none", "int ends"]
SCALARS = RECORD_SCALARS + ["true", "false", "bool", "beyond int64",
                            "numpy int", "numpy float", "numpy bool", "str"]

layouts = st.recursive(
    st.sampled_from(RECORD_SCALARS) | st.sampled_from(SCALARS),
    lambda inner: st.tuples(st.sampled_from([tuple, list]),
                            st.lists(inner, max_size=4)),
    max_leaves=8)


def scalar(kind, rng):
    if kind == "int":
        return rng.randrange(-2 ** 63, 2 ** 63)
    if kind == "float":
        return rng.choice([rng.uniform(-1e9, 1e9), rng.choice(SPECIAL_FLOATS)])
    if kind == "none":
        return None
    if kind in ("true", "false"):
        return kind == "true"
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int ends":
        return rng.choice(INT_ENDS)
    if kind == "beyond int64":
        return rng.choice(INT_ENDS + BEYOND_INT64)
    if kind == "numpy int":
        return np.int64(rng.randrange(-5, 5))
    if kind == "numpy float":
        return np.float64(rng.choice(SPECIAL_FLOATS))
    if kind == "numpy bool":
        return np.bool_(rng.random() < 0.5)
    return "s" * rng.randrange(3)


def make(layout, rng):
    if isinstance(layout, str):
        return scalar(layout, rng)
    container, parts = layout
    return container(make(part, rng) for part in parts)


def ragged(item, rng):
    """``item`` one element shorter or longer, when it is a container."""
    if not isinstance(item, (tuple, list)):
        return [item]
    longer = type(item)(list(item) + [rng.randrange(9)])
    return longer if not item or rng.random() < 0.5 else item[:-1]


@st.composite
def sequences(draw):
    layout = draw(layouts)
    other = draw(layouts)
    length = draw(st.sampled_from(LENGTHS) | st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    items = [make(layout, rng) for _ in range(length)]
    for where, how in draw(st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True),
                      st.sampled_from(["ragged", "other"])), max_size=3)):
        if items:
            at = int(where * len(items))
            items[at] = (ragged(items[at], rng) if how == "ragged"
                         else make(other, rng))
    wrap = draw(st.sampled_from(["list", "tuple", "leaf page", "objarray"]))
    if wrap == "tuple":
        return tuple(items)
    if wrap == "leaf page":
        return {"table": "t", "index": "pk", "items": items}
    if wrap == "objarray" and all(not isinstance(i, (tuple, list))
                                  for i in items):
        array = np.empty(len(items), dtype=object)
        array[:] = items
        return array
    return items


def assert_identical(got, want):
    """Equal in value, in exact type and in float bits, recursively."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_identical(got[key], want[key])
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        if want.dtype == object:
            assert_identical(got.tolist(), want.tolist())
        else:
            assert got.tobytes() == want.tobytes()
    else:
        assert got == want


def reference_bytes(value) -> bytes:
    out = bytearray()
    reference_pack(value, out)
    return bytes(out)


def check(value):
    want = reference_bytes(value)
    got = bytearray()
    pack_value(value, got)
    assert bytes(got) == want
    decoded, end = unpack_value(want, 0)
    expected, expected_end = reference_unpack(want, 0)
    assert end == expected_end == len(want)
    assert_identical(decoded, expected)


@examples(150)
@given(sequences())
def test_encoder_and_decoder_match_the_reference(value):
    check(value)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # dtype alias "a"
@examples(150)
@given(sequences(), st.data())
def test_damaged_encoding_decodes_as_the_reference_does(value, data):
    buf = bytearray(reference_bytes(value))
    at = data.draw(st.integers(0, len(buf) - 1))
    buf[at] = data.draw(st.integers(0, 255))
    try:
        expected = reference_unpack(bytes(buf), 0)
    except Exception:
        with pytest.raises(StorageError):
            unpack_value(bytes(buf), 0)
        return
    decoded, end = unpack_value(bytes(buf), 0)
    assert end == expected[1]
    assert_identical(decoded, expected[0])


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("shape", [
    "leaf", "ints", "floats", "nones", "int ends", "beyond int64",
    "mixed bools", "numpy scalars", "ragged"])
def test_named_cases(shape, length):
    rng = random.Random(length)
    leaf = [((k, rng.randrange(1 << 40)), (k, rng.randrange(1 << 40), -k, 0))
            for k in range(length)]
    items = {
        "leaf": leaf,
        "ints": list(range(-length, length, 2)),
        "floats": [rng.choice(SPECIAL_FLOATS) for _ in range(length)],
        "nones": [(k, None) for k in range(length)],
        "int ends": [(rng.choice(INT_ENDS), 1.5) for _ in range(length)],
        "beyond int64": [rng.choice(INT_ENDS) for _ in range(length)]
        + [2 ** 63],
        "mixed bools": [(k, k % 3 == 0) for k in range(length)],
        "numpy scalars": [(k, 2.0) for k in range(length)]
        + [(np.int64(7), np.float64(2.0))],
        "ragged": [(k, k) for k in range(length)] + [(1, 2, 3)],
    }[shape]
    for value in (items, tuple(items), {"items": items, "n": length}):
        check(value)
