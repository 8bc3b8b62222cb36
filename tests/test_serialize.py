"""The one-pass JSON writer against the json module's indented layout."""

import enum
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4solv.serialize import dumps

#: every code point: non-ASCII, control characters and lone surrogates.  The
#: second alphabet keeps lone surrogates frequent and puts them next to the
#: BMP above them and astral characters, whose UTF-16 order is not their
#: code-point order.  A text of one ``characters`` alphabet is drawn whole;
#: a ``one_of`` alphabet would be drawn one character at a time.
TEXT = st.text(st.characters(exclude_categories=())) | st.text(
    st.characters(min_codepoint=0xD800, max_codepoint=0x1FFFF, exclude_categories=())
)
#: one character of each kind the quoting treats apart: plain ASCII, a quote,
#: a backslash, a control character, non-ASCII in the BMP, an astral
#: character (a surrogate pair when escaped) and a lone surrogate
FEW = st.text(st.sampled_from(["a", '"', "\\", "\x07", "\u00e9", "\U0001f600", "\ud800"]))
INTS = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))


def leaves(text):
    """The leaves of an exact payload: rationals are written as strings, never floats."""
    return st.none() | st.booleans() | INTS | text


def containers(children, text, max_size=None):
    return st.one_of(
        st.lists(children, max_size=max_size),
        st.lists(children, max_size=max_size).map(tuple),
        st.lists(INTS, max_size=max_size),  # the writer joins all-int lists in one call
        st.dictionaries(text, children, max_size=max_size),
    )


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


#: nested values, narrow but deep: few characters, at most three entries a level
NESTED = st.recursive(leaves(FEW), lambda children: containers(children, FEW, 3), max_leaves=40)
#: a leaf or one level of a container, every key and leaf over every code point
FLAT = leaves(TEXT) | containers(leaves(TEXT), TEXT)


@settings(max_examples=300)
@given(NESTED)
def test_dumps_is_the_indented_json_layout(value):
    assert dumps(value) == reference(value)


@settings(max_examples=300)
@given(FLAT)
def test_dumps_quotes_every_code_point_in_keys_and_leaves(value):
    assert dumps(value) == reference(value)


class Level(enum.IntEnum):
    LOW = 3


class Text(str):
    def __str__(self):
        return "overridden"


def test_subclasses_are_written_as_their_base_types():
    value = {"a": [Level.LOW, Level.LOW], Text("k"): Text("v"), "n": [1, True, 2]}
    assert dumps(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [0.5, float("nan"), {"a": [1, -0.0]}, {1: "a"}, {None: 0}, {True: 1}, {0.5: 1}],
    ids=["float", "nan", "nested float", "int key", "None key", "bool key", "float key"],
)
def test_floats_and_non_str_keys_raise_type_error(value):
    # json would write these; no exact payload holds them
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize(
    "value",
    [F(1, 2), {"a": [1, {2, 3}]}, {(1, 2): 0}, {"a": {(): 1}}, [1j]],
    ids=["fraction", "set", "tuple key", "empty tuple key", "complex"],
)
def test_values_json_cannot_encode_raise_type_error(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        dumps(value)
