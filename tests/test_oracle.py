from fractions import Fraction as F

import pytest

from f4solv.errors import ReductionError
from f4solv.invariants import t_polys, variables_rational
from f4solv import oracle
from f4solv.models import RATIONAL, TRIG, ModelParams, rational_a_table
from f4solv.oracle import (
    calibrate_normalization,
    candidate_monomials,
    cartesian_oracle,
    derive_missing_a66,
    invariant_reduce,
    oracle_sweep_rational,
    oracle_sweep_trig,
)
from f4solv.poly import MPoly
from tests.conftest import RATIONAL_SETS, TRIG_SETS


class TestCalibration:
    def test_rational_lands_in_candidate_set(self, rational_params):
        cal = calibrate_normalization(RATIONAL, rational_params)
        assert cal.scale == F(1, 2)
        assert cal.offset == 0
        assert cal.drift_sign == -1  # tables carry the sign-flipped drift

    def test_rational_identical_across_parameter_sets(self):
        cals = [calibrate_normalization(RATIONAL, p) for p in RATIONAL_SETS]
        assert len({(c.scale, c.offset, c.drift_sign) for c in cals}) == 1

    def test_trig_scale(self, trig_params):
        cal = calibrate_normalization(TRIG, trig_params)
        assert cal.scale == 1
        assert cal.offset == 0

    def test_trig_identical_across_parameter_sets(self):
        cals = [calibrate_normalization(TRIG, p) for p in TRIG_SETS]
        assert len({(c.scale, c.offset) for c in cals}) == 1


class TestCartesianOracle:
    def test_constant_maps_to_zero(self, rational_params):
        cal = calibrate_normalization(RATIONAL, rational_params)
        value = cartesian_oracle(
            RATIONAL, rational_params, MPoly.one("t"), (F(1), F(2), F(3), F(5)), cal
        )
        assert value == 0

    def test_exact_agreement_on_t1(self, rational_op, rational_params):
        cal = calibrate_normalization(RATIONAL, rational_params)
        # nonsingular integer point: all half-sum forms stay away from zero
        x = (F(1), F(2), F(3), F(5))
        p = MPoly.variable("t", 0)
        lhs = rational_op.apply(p).eval_exact(variables_rational(x))
        assert cartesian_oracle(RATIONAL, rational_params, p, x, cal) == lhs

    def test_rational_sweep_is_exact(self, rational_params):
        report = oracle_sweep_rational(rational_params, n_points=20, n_polys=5)
        assert report["passed"]
        assert report["failures"] == []

    def test_trig_sweep_within_tolerance(self, trig_params):
        report = oracle_sweep_trig(trig_params, n_points=20, n_polys=5)
        assert report["passed"]
        assert float(report["worst_rel_error"]) <= 1e-9


class TestInvariantReduce:
    def test_first_symmetric_function(self):
        result = invariant_reduce(
            lambda x: sum(F(v) ** 2 for v in x), 1
        )
        assert result == MPoly.variable("t", 0)

    def test_gradient_square_of_t1(self):
        result = invariant_reduce(
            lambda x: sum(4 * F(v) ** 2 for v in x), 1
        )
        assert result == 4 * MPoly.variable("t", 0)

    def test_square_consistency(self):
        result = invariant_reduce(
            lambda x: sum(F(v) ** 2 for v in x) ** 2, 2
        )
        assert result == MPoly.variable("t", 0) ** 2

    def test_degree_six_invariant_roundtrip(self):
        t6 = t_polys()[3]
        result = invariant_reduce(
            lambda x: t6.eval_exact([F(v) ** 2 for v in x]), 6
        )
        assert result == MPoly.variable("t", 3)

    def test_non_invariant_input_fails(self):
        with pytest.raises(ReductionError):
            invariant_reduce(lambda x: F(x[0]), 2)

    def test_candidate_enumeration_bound(self):
        cands = candidate_monomials(6)
        assert (0, 0, 0, 1) in cands
        assert all(p1 + 3 * p3 + 4 * p4 + 6 * p6 <= 6 for p1, p3, p4, p6 in cands)


class TestMissingCoefficient:
    def test_reconstruction_matches_both_routes(self):
        expected = MPoly("t", {(0, 1, 2, 0): -6, (1, 0, 1, 1): -3})
        assert rational_a_table()[(6, 6)] == expected
        for params in RATIONAL_SETS:
            assert derive_missing_a66(params) == expected

    def test_limit_route_ignores_the_tabulated_entry(self, monkeypatch):
        # route two must not compare the tabulated (6,6) entry with itself
        def wrong_table():
            table = rational_a_table()
            table[(6, 6)] = MPoly("t", {(0, 1, 2, 0): 5})
            return table

        monkeypatch.setattr(oracle, "rational_a_table", wrong_table)
        assert oracle._rational_to_trig_ratio() == F(1, 2)

    def test_completed_operator_passes_heavy_oracle(self, rational_params):
        heavy = [
            MPoly.monomial("t", (0, 0, 0, 2)),
            MPoly.monomial("t", (2, 1, 0, 1)),
        ]
        report = oracle_sweep_rational(
            rational_params, n_points=8, n_polys=1, extra_polys=heavy
        )
        assert report["passed"]
