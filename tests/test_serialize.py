"""The one-pass JSON writer against the json module's indented layout, and the
eigenfunctions document against ``dumps`` of its per-term payload."""

import enum
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f4solv.poly import MPoly
from f4solv.serialize import dumps, eigenfunctions_json, mpoly_to_json, spectral_line_json
from f4solv.spectral import EigenReport, SpectralLine, eigenfunctions
from tests.conftest import MINIMAL

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


# -- the eigenfunctions document, written straight from the report --------------

def reference_document(report, model, level, charvec) -> str:
    """The document as ``dumps`` writes it from the per-term dicts of ``mpoly_to_json``."""
    pairs = [{**spectral_line_json(line), "eigenfunction": mpoly_to_json(line.eigenfunction),
              "residual_zero": True} for line in report.lines]
    return dumps({"model": model, "level": level, "charvec": list(charvec),
                  "eigenpairs": pairs, "defective_blocks": list(report.defective_blocks)})


#: past Python's int-to-str limit of 4300 digits, which format_fraction lifts
HUGE = 10**4400 + 7
EXPONENT = st.tuples(*[st.integers(0, 6)] * 4)
COEFF = (st.fractions().filter(bool)
         | st.builds(lambda k, d: F(k * HUGE, d), st.integers(-3, 3).filter(bool), st.integers(1, 9)))


@st.composite
def reports(draw):
    """A report in one frame: labeled and unlabeled lines, terms in any order."""
    frame = draw(st.sampled_from(["t", "rho", "tau"]))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        terms = draw(st.dictionaries(EXPONENT, COEFF, max_size=6))
        label = draw(st.none() | EXPONENT)
        lines.append(SpectralLine(label, draw(COEFF | st.just(F(0))), None, MPoly(frame, terms)))
    blocks = draw(st.lists(st.fixed_dictionaries({
        "eigenvalue": st.fractions().map(str),
        "algebraic_multiplicity": st.integers(2, 9),
        "geometric_multiplicity": st.integers(1, 8),
    }), max_size=2))
    return EigenReport(tuple(lines), tuple(blocks))


@settings(max_examples=200)
@given(reports(), st.sampled_from(["rational", "trig"]), st.integers(0, 20),
       st.tuples(*[st.integers(1, 6)] * 4))
@example(EigenReport((), ()), "trig", 3, (1, 2, 2, 3))  # the empty report
def test_eigenfunctions_document_is_dumps_of_the_per_term_payload(report, model, level, charvec):
    assert "".join(eigenfunctions_json(report, model, level, charvec)) == reference_document(
        report, model, level, charvec)


@pytest.mark.parametrize("f, n", [((1, 2, 3, 4), 6), ((1, 2, 3, 5), 8)])
def test_terms_follow_the_canonical_order_not_the_basis_order(rational_op, f, n):
    # on these flags the basis order differs from MINIMAL_CHARVEC's term order
    report = eigenfunctions(rational_op, f, n)
    assert any(list(line.eigenfunction.terms) != [m for m, _ in line.eigenfunction.sorted_terms()]
               for line in report.lines)
    assert "".join(eigenfunctions_json(report, "rational", n, f)) == reference_document(
        report, "rational", n, f)


def test_rho_and_tau_documents_match_the_per_term_payload(trig_op, rho_op):
    # the tau eigenpairs at the eigenvalues read off the rho diagonal, as the CLI finds them
    for op, n in ((rho_op, 6), (trig_op, 3)):
        report = eigenfunctions(op, MINIMAL, n)
        assert "".join(eigenfunctions_json(report, "trig", n, MINIMAL)) == reference_document(
            report, "trig", n, MINIMAL)
