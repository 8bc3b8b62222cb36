from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f4solv import flags
from f4solv.flags import (
    KNOWN_CHARACTERISTIC_VECTORS,
    _alternative_flags,
    _redefinitions,
    ambiguity_search,
    enumerate_basis,
    flag_dimension,
    flag_matrix,
    is_triangular,
    preserves_flag,
    scan_characteristic_vectors,
)
from f4solv.models import ambiguity_map
from f4solv.operators import SecondOrderOp
from f4solv.poly import MPoly, weighted_grade

MINIMAL = (1, 2, 2, 3)


class TestBases:
    def test_level_zero(self):
        basis = enumerate_basis(MINIMAL, 0)
        assert basis.monomials == ((0, 0, 0, 0),)

    def test_level_two_listing(self):
        basis = enumerate_basis(MINIMAL, 2)
        assert basis.monomials == (
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (2, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
        )

    def test_level_three_additions(self):
        two = enumerate_basis(MINIMAL, 2)
        three = enumerate_basis(MINIMAL, 3)
        assert len(three) == 9
        assert three.monomials[len(two):] == (
            (3, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (0, 0, 0, 1),
        )

    @pytest.mark.parametrize("n", range(10))
    def test_nesting_as_ordered_prefixes(self, n):
        small = enumerate_basis(MINIMAL, n)
        big = enumerate_basis(MINIMAL, n + 1)
        assert big.monomials[: len(small)] == small.monomials

    @pytest.mark.parametrize("f", [(1, 2, 2, 3), (1, 1, 1, 1), (1, 3, 4, 6)])
    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_dimension_matches_enumeration(self, f, n):
        assert flag_dimension(f, n) == len(enumerate_basis(f, n))

    def test_bad_charvec_rejected(self):
        with pytest.raises(ValueError):
            enumerate_basis((2, 2, 2, 3), 4)
        with pytest.raises(ValueError):
            enumerate_basis((1, 0, 2, 3), 4)


class TestPreservation:
    def test_rational_preserves_minimal_flag_to_level_8(self, rational_op):
        verdict = preserves_flag(rational_op, MINIMAL, 8)
        assert verdict.preserved and verdict.witness is None

    def test_trig_preserves_minimal_flag_to_level_6(self, trig_op):
        verdict = preserves_flag(trig_op, MINIMAL, 6)
        assert verdict.preserved

    def test_unit_weights_fail_with_witness(self, rational_op):
        verdict = preserves_flag(rational_op, (1, 1, 1, 1), 4)
        assert not verdict.preserved
        w = verdict.witness
        assert w["term_grade"] > w["grade"]
        # re-check the witness directly
        image = rational_op.apply(MPoly.monomial("t", tuple(w["monomial"])))
        exps = {tuple(rec) for rec in [w["offending_term"]["exponents"]]}
        assert exps & set(image.terms)

    def test_witness_prints_the_image_coefficient(self, rational_op):
        # at (1/3, 1/5) the image terms are ints over the operator's d = 30
        assert rational_op.scaled_to_integers()[0] == 30
        w = preserves_flag(rational_op, (1, 1, 1, 1), 4).witness
        assert w["monomial"] == [0, 1, 0, 0]
        assert w["offending_term"] == {"exponents": [2, 0, 0, 0], "coeff": "-41/30"}
        image = rational_op.apply(MPoly.monomial("t", (0, 1, 0, 0)))
        assert image.terms[(2, 0, 0, 0)] == F(-41, 30)

    @pytest.mark.parametrize("k", range(7))
    def test_preservation_is_downward_closed(self, rational_op, k):
        assert preserves_flag(rational_op, MINIMAL, k).preserved


class TestTriangularity:
    def test_rational_strictly_triangular(self, rational_op):
        verdict = is_triangular(rational_op, MINIMAL, 6)
        assert verdict.strict and verdict.preserved

    def test_tau_frame_not_triangular_with_witness(self, trig_op):
        verdict = is_triangular(trig_op, MINIMAL, 4)
        assert not verdict.strict
        assert verdict.preserved  # never raises the grade, mixes inside it
        entry = verdict.violation
        assert entry is not None and F(entry["value"]) != 0

    def test_rho_frame_strictly_triangular(self, rho_op):
        verdict = is_triangular(rho_op, MINIMAL, 6)
        assert verdict.strict

    def test_unpreserved_flag_is_vacuously_non_triangular(self, rational_op):
        verdict = is_triangular(rational_op, (1, 1, 1, 1), 4)
        assert not verdict.strict and not verdict.preserved
        assert verdict.violation is not None


def dense_violation(basis, data):
    """The first nonzero entry below the diagonal of the dense rows, column
    by column, each column top to bottom, as ``is_triangular`` reports it."""
    n = len(data)
    return next(
        (
            {
                "row_monomial": list(basis.monomials[i]),
                "col_monomial": list(basis.monomials[j]),
                "value": str(data[i][j]),
            }
            for j in range(n)
            for i in range(j + 1, n)
            if data[i][j]
        ),
        None,
    )


class TestViolation:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["rational", "tau", "rho", "moved"]),
        st.sampled_from(list(_redefinitions())),
        st.integers(0, 8),
        st.data(),
    )
    def test_violation_is_the_dense_column_then_row_scan(
        self, rational_op, trig_op, rho_op, source, values, n, data
    ):
        # the model operators, and the rational one moved by an invariant redefinition
        models = {"rational": rational_op, "tau": trig_op, "rho": rho_op}
        op = models.get(source) or rational_op.change_variables(*ambiguity_map(*values))
        preserved = [f for f in KNOWN_CHARACTERISTIC_VECTORS if preserves_flag(op, f, n)]
        assume(preserved)
        f = data.draw(st.sampled_from(preserved))
        _, basis, mat = flag_matrix(op, f, n)
        verdict = is_triangular(op, f, n)
        assert verdict.violation == dense_violation(basis, mat.data)
        assert verdict.strict == (verdict.violation is None) == mat.is_upper_triangular()


def structural_moves(op):
    """Exponent shifts induced by each coefficient monomial of the operator."""
    from f4solv.poly import SLOT

    def unit(slot):
        e = [0, 0, 0, 0]
        e[slot] = 1
        return tuple(e)

    moves = set()
    for (a, b), poly in op.a.items():
        ea, eb = unit(SLOT[a]), unit(SLOT[b])
        for mono in poly.terms:
            moves.add(tuple(m - x - y for m, x, y in zip(mono, ea, eb)))
    for a, poly in op.b.items():
        ea = unit(SLOT[a])
        for mono in poly.terms:
            moves.add(tuple(m - x for m, x in zip(mono, ea)))
    return moves


def goes_strictly_earlier(delta, frame):
    order = (1, 3, 2, 0) if frame == "rho" else (0, 1, 2, 3)
    for slot in order:
        if delta[slot]:
            return delta[slot] > 0
    return False


class TestStructuralTriangularity:
    """Coefficient-level certification, valid at every level at once."""

    def test_rational_moves_lower_grade_or_go_earlier(self, rational_op):
        for delta in structural_moves(rational_op):
            g = weighted_grade(delta, MINIMAL)
            assert g < 0 or delta == (0, 0, 0, 0) or goes_strictly_earlier(delta, "t")

    def test_rho_moves_lower_grade_or_go_earlier(self, rho_op):
        for delta in structural_moves(rho_op):
            g = weighted_grade(delta, MINIMAL)
            assert g < 0 or delta == (0, 0, 0, 0) or goes_strictly_earlier(delta, "rho")

    def test_tau_frame_carries_an_inverting_move(self, trig_op):
        bad = [
            delta
            for delta in structural_moves(trig_op)
            if weighted_grade(delta, MINIMAL) == 0
            and delta != (0, 0, 0, 0)
            and not goes_strictly_earlier(delta, "tau")
        ]
        assert bad  # the mixing that no monomial order can repair


class TestScan:
    def test_canonical_scan(self, rational_op):
        scan = scan_characteristic_vectors(rational_op, 6, 6)
        assert MINIMAL in scan.preserved
        assert scan.minimal == (MINIMAL,)
        smaller = [
            f
            for f in scan.preserved
            if f != MINIMAL and all(a <= b for a, b in zip(f, MINIMAL))
        ]
        assert smaller == []

    def test_rejected_vectors_carry_witnesses(self, rational_op):
        scan = scan_characteristic_vectors(rational_op, 3, 6)
        assert (1, 1, 1, 1) in scan.witnesses
        assert MINIMAL not in scan.witnesses

    def test_scan_preconditions(self, rational_op):
        with pytest.raises(ValueError):
            scan_characteristic_vectors(rational_op, 2, 6)
        with pytest.raises(ValueError):
            scan_characteristic_vectors(rational_op, 6, 3)

    def test_sheared_operator_lands_on_known_flag(self, rational_op):
        fwd, inv = ambiguity_map(a=F(1))
        moved = rational_op.change_variables(fwd, inv)
        scan = scan_characteristic_vectors(moved, 6, 6)
        assert (1, 3, 3, 5) in scan.preserved
        assert MINIMAL not in scan.preserved

    def test_ambiguity_search_refuses_other_frames(self, trig_op):
        with pytest.raises(ValueError, match="t frame"):
            ambiguity_search(trig_op)

    def test_ambiguity_search_finds_alternative(self, rational_op):
        report = ambiguity_search(rational_op, bound=6, n=6)
        assert not report["not_found"]
        found = report["found"][0]
        vectors = {tuple(v) for v in found["vectors"]}
        assert vectors & (set(KNOWN_CHARACTERISTIC_VECTORS) - {MINIMAL})


class TestAmbiguitySearch:
    """Each redefinition is checked on the known alternative vectors only."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(list(_redefinitions())),
        st.integers(4, 8),
        st.integers(4, 8),
    )
    def test_alternatives_are_the_full_scan_hits(self, rational_op, values, bound, n):
        moved = rational_op.change_variables(*ambiguity_map(*values))
        known = set(KNOWN_CHARACTERISTIC_VECTORS) - {MINIMAL}
        scan = scan_characteristic_vectors(moved, bound, n)
        assert _alternative_flags(moved, bound, n) == tuple(
            f for f in scan.preserved if f in known
        )

    def test_search_runs_no_full_scan(self, rational_op, monkeypatch):
        calls = []
        monkeypatch.setattr(
            flags, "scan_characteristic_vectors", lambda *args: calls.append(args)
        )
        report = ambiguity_search(rational_op, bound=4, n=4)
        assert report["searched"] > 1 and not report["not_found"]
        assert calls == []

    def test_no_target_vector_tries_no_redefinition(self, rational_op, monkeypatch):
        # every known alternative has a component of 4 or more
        def refuse(*args):
            raise AssertionError("change_variables ran")

        monkeypatch.setattr(SecondOrderOp, "change_variables", refuse)
        report = ambiguity_search(rational_op, bound=3, n=4)
        assert report["searched"] == len(list(_redefinitions())) == 910
        assert report["found"] == [] and report["not_found"]

    @pytest.mark.parametrize(
        "bound, n, message", [(2, 6, "bound"), (6, 3, "level")], ids=["bound", "level"]
    )
    def test_range_errors_come_before_any_redefinition(
        self, rational_op, monkeypatch, bound, n, message
    ):
        def refuse(*args):
            raise AssertionError("change_variables ran")

        monkeypatch.setattr(SecondOrderOp, "change_variables", refuse)
        with pytest.raises(ValueError, match=message):
            ambiguity_search(rational_op, bound=bound, n=n)
