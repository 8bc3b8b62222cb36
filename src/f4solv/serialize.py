"""Machine-readable formats: exact rationals as strings, never floats."""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

try:  # the C function json.encoder re-exports, without loading json's decoder
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter built without the accelerator
    from json.encoder import encode_basestring_ascii as _quote

from .operators import A_PAIRS, SecondOrderOp
from .poly import MINIMAL_CHARVEC, VAR_IDS, MPoly, term_order_key
from .poly import format_fraction  # re-exported, and used here

if TYPE_CHECKING:  # spectral is loaded by the commands that compute spectra
    from .spectral import EigenReport, SpectralLine


def parse_fraction(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational written num/den, not {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def mpoly_to_json(p: MPoly) -> dict:
    return {
        "frame": p.frame,
        "terms": [
            {"exponents": list(exp), "coeff": format_fraction(coeff)}
            for exp, coeff in p.sorted_terms()
        ],
    }


def mpoly_from_json(obj: dict) -> MPoly:
    terms = {
        tuple(rec["exponents"]): parse_fraction(rec["coeff"])
        for rec in obj["terms"]
    }
    return MPoly(obj["frame"], terms)


def operator_to_json(op: SecondOrderOp) -> dict:
    return {
        "frame": op.frame,
        "A": [
            {"a": a, "b": b, "poly": mpoly_to_json(op.a[(a, b)])}
            for (a, b) in A_PAIRS
            if (a, b) in op.a
        ],
        "B": [
            {"a": a, "poly": mpoly_to_json(op.b[a])}
            for a in VAR_IDS
            if a in op.b
        ],
        "C": mpoly_to_json(op.c),
    }


def spectrum_csv(lines: Sequence[SpectralLine], scale: Fraction, offset: Fraction) -> str:
    header = (
        "p1,p3,p4,p6,level,eigenvalue,closed_form_energy,"
        "calibration_scale,calibration_offset"
    )
    rows = [header]
    s, o = format_fraction(scale), format_fraction(offset)
    for line in lines:
        labeled = line.quantum_numbers is not None
        p = [str(v) for v in line.quantum_numbers] if labeled else ["", "", "", ""]
        level = str(line.level) if labeled else ""
        e = line.closed_form_energy
        energy = "" if e is None else format_fraction(e)
        rows.append(",".join(p + [level, format_fraction(line.eigenvalue), energy, s, o]))
    return "\n".join(rows) + "\n"


def spectral_line_json(line: SpectralLine) -> dict:
    obj = {"eigenvalue": format_fraction(line.eigenvalue)}
    if line.quantum_numbers is not None:
        obj["quantum_numbers"] = list(line.quantum_numbers)
        obj["level"] = line.level
    if line.closed_form_energy is not None:
        obj["closed_form_energy"] = format_fraction(line.closed_form_energy)
    return obj


#: an eigenpair of the eigenfunctions document, a term's text after its coefficient,
#: and a label, as ``dumps`` lays them out
_PAIR = ('{\n      "eigenfunction": {\n        "frame": %s,\n        "terms": %s\n      },\n'
         '      "eigenvalue": %s%s,\n      "residual_zero": true\n    }')
_TERM = '",\n            "exponents": %s\n          }'
_LABEL = ',\n      "level": %s,\n      "quantum_numbers": %s'


def eigenfunctions_json(report: EigenReport, model: str, level: int,
                        charvec: Sequence[int]) -> list[str]:
    """The pieces of ``dumps`` of the eigenfunctions document (lines as ``spectral_line_json``
    with ``"eigenfunction"`` and ``"residual_zero": true``), one per eigenpair, made straight
    from the report.  Its eigenfunctions share one frame: each monomial's text is made once."""
    frame = report.lines[0].eigenfunction.frame if report.lines else None
    order = sorted(set().union(*(line.eigenfunction.terms for line in report.lines)),
                   key=lambda m: term_order_key(m, MINIMAL_CHARVEC, frame))
    rank = {m: k for k, m in enumerate(order)}
    texts = [_TERM % _array([*map(str, m)], "\n            ") for m in order]
    out = ['{\n  "charvec": ' + _array([*map(str, charvec)], "\n  ") + ',\n  "defective_blocks": ']
    _write(list(report.defective_blocks), out, "\n  ")
    out.append(',\n  "eigenpairs": [')
    for i, line in enumerate(report.lines):  # a separator and one text per eigenpair
        psi, qn = line.eigenfunction, line.quantum_numbers
        terms = ['{\n            "coeff": "' + format_fraction(c) + texts[k]
                 for k, c in sorted(zip(map(rank.__getitem__, psi.terms), psi.terms.values()))]
        label = "" if qn is None else _LABEL % (_leaf(line.level), _array([*map(str, qn)], "\n      "))
        out += [",\n    " if i else "\n    ", _PAIR % (_quote(psi.frame), _array(terms, "\n        "),
                                                      _quote(format_fraction(line.eigenvalue)), label)]
    out.append(("\n  ]" if report.lines else "]") + ',\n  "level": %s,\n  "model": %s\n}\n' % (
        _leaf(level), _quote(model)))
    return out


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, written in one
    pass: with an indent the json module runs its pure-Python encoder.
    Payloads are exact: a float leaf or a non-str key raises ``TypeError``."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out) + "\n"


_NAMES = {None: "null", True: "true", False: "false"}


def _leaf(o) -> str:
    """json's form of a str, None, bool or int."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return _NAMES[o]
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _array(items: list[str], nl: str) -> str:
    """A JSON array at the indent ``nl`` of items already encoded one indent deeper."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


def _write(o, out: list[str], nl: str) -> None:
    """Append the encoding of ``o``; ``nl`` is a newline and the current indent."""
    inner = nl + "  "
    comma = "," + inner
    if isinstance(o, dict) and o:
        for i, (k, v) in enumerate(sorted(o.items())):
            head = (comma if i else "{" + inner) + _quote(k)  # a str key, else TypeError
            if type(v) is str:  # the common leaf, written inline
                out.append(head + ": " + _quote(v))
            else:
                out.append(head + ": ")
                _write(v, out, inner)
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)) and {*map(type, o)} == {int}:  # exponents: one join
        out.append(_array([*map(int.__repr__, o)], nl))
    elif isinstance(o, (list, tuple)) and o:
        for i, v in enumerate(o):
            out.append(comma if i else "[" + inner)
            _write(v, out, inner)
        out.append(nl + "]")
    elif isinstance(o, (dict, list, tuple)):
        out.append("{}" if isinstance(o, dict) else "[]")
    else:
        out.append(_leaf(o))
