"""The sort-based distinct kernel, and the guard that keeps numpy's hash
path out of the engine.

numpy 2 answers a bare ``np.unique(x)`` by hashing, which costs ~30x a
sort on integers. ``sorted_distinct`` sorts instead and must return what
``np.unique`` returns: the same values (NaNs collapsed into one trailing
NaN) in the same dtype. ``np.unique(x, return_inverse=True)`` sorts on
its own, so only bare calls are banned from ``src/repro``.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.storage.compression import sorted_distinct
from tests.oracle import examples

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def assert_same_distinct(values):
    got, want = sorted_distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if values.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert np.array_equal(got, want, equal_nan=True)


def many(dtype, elements):
    """Arrays of ``dtype`` from empty up, drawing heavy repeats too."""
    return hnp.arrays(dtype, st.integers(0, 200), elements=elements)


@examples(200)
@given(many(np.int64, st.integers(-3, 3)
            | st.integers(-2 ** 63, 2 ** 63 - 1)))
def test_int64(values):
    assert_same_distinct(values)


@examples(200)
@given(many(np.uint64, st.integers(0, 3) | st.integers(0, 2 ** 64 - 1)))
def test_uint64(values):
    assert_same_distinct(values)


@examples(200)
@given(many(np.float64,
            st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5])
            | st.floats(allow_nan=True, allow_infinity=True)))
def test_float64_with_nan_signed_zero_and_infinity(values):
    assert_same_distinct(values)


@examples(200)
@given(st.lists(st.text(alphabet="ab", max_size=3), max_size=60))
def test_object_strings(strings):
    values = np.empty(len(strings), dtype=object)
    values[:] = strings
    assert_same_distinct(values)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.float64, object])
def test_empty_and_one_element(dtype):
    assert_same_distinct(np.array([], dtype=dtype))
    one = np.empty(1, dtype=dtype)
    one[0] = 7 if dtype is not object else "x"
    assert_same_distinct(one)


def test_nans_collapse_to_one_trailing_nan():
    got = sorted_distinct(np.array([np.nan, 2.0, np.nan, -0.0, 0.0, np.nan]))
    assert got.tolist()[:2] == [0.0, 2.0] and np.isnan(got[2])
    assert len(got) == 3


# ----------------------------------------------------------------- guard

def bare_unique_calls(source: str, where: str):
    """``np.unique(...)`` calls of ``source`` without a true
    ``return_inverse``, as ``where:line``."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        inverse = [k.value for k in node.keywords if k.arg == "return_inverse"]
        if not inverse or (isinstance(inverse[0], ast.Constant)
                           and not inverse[0].value):
            yield f"{where}:{node.lineno}"


def test_the_guard_sees_a_bare_call():
    source = ("a = np.unique(x)\n"
              "b = np.unique(x, return_inverse=True)\n"
              "c = numpy.unique(x, return_index=True, return_inverse=False)\n")
    assert list(bare_unique_calls(source, "s")) == ["s:1", "s:3"]


def test_src_has_no_bare_np_unique():
    found = [call for path in sorted(SRC.rglob("*.py"))
             for call in bare_unique_calls(
                 path.read_text(), str(path.relative_to(SRC.parent)))]
    assert found == [], ("use repro.storage.compression.sorted_distinct: "
                         f"a bare np.unique hashes in numpy 2: {found}")
