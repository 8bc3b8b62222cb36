import math
import struct
from fractions import Fraction as F
from itertools import combinations

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from f4solv import oracle
from f4solv.errors import SingularMapError
from f4solv.invariants import (
    circle_points,
    elem_sym_values,
    sigma_polys,
    variables_rational,
    variables_trig,
)
from f4solv.models import (
    ModelParams,
    ambiguity_map,
    build_rational_operator,
    build_rho_map,
    build_trig_operator,
    rational_a_table,
    trig_a_table,
)
from f4solv.poly import FRAME_VARS, MPoly, is_inverse_pair, weighted_grade
from f4solv.sampling import SeededSampler

TAU1 = MPoly.variable("tau", 0)


class TestCouplings:
    def test_rational_convention(self):
        p = ModelParams(nu=F(1, 3), mu=F(1, 5), omega=F(1))
        g, g1 = p.couplings("rational")
        assert g == F(1, 3) * (F(1, 3) - 1)
        assert g1 == F(1, 5) * (F(1, 5) - 1) / 2

    def test_trig_convention(self):
        p = ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=F(1))
        g, g1 = p.couplings("trig")
        assert g == F(1, 3) * (F(1, 3) - 1) / 2
        assert g1 == F(1, 8) * (F(1, 8) - 1)

    def test_window_violation_warns_not_raises(self):
        bad = ModelParams(nu=F(1, 2), mu=F(1, 2), beta2=F(1))
        with pytest.warns(RuntimeWarning):
            build_trig_operator(bad)


class TestCoefficientTables:
    def test_rational_second_order_entries(self):
        a = rational_a_table()
        assert a[(1, 1)] == MPoly("t", {(1, 0, 0, 0): 2})
        assert a[(3, 6)] == MPoly("t", {(0, 0, 2, 0): 8, (2, 0, 0, 1): -1})
        assert a[(4, 6)] == MPoly("t", {(1, 0, 2, 0): -2, (0, 1, 0, 1): -3})
        assert len(a) == 10
        assert a[(6, 6)] == MPoly("t", {(0, 1, 2, 0): -6, (1, 0, 1, 1): -3})

    def test_rational_build_derives_nothing(self, monkeypatch, rational_params):
        def forbidden(*args, **kwargs):
            raise AssertionError("the build path must not derive or calibrate")

        monkeypatch.setattr(oracle, "derive_missing_a66", forbidden)
        monkeypatch.setattr(oracle, "calibrate_normalization", forbidden)
        op = build_rational_operator(rational_params)
        assert op.a_entry(6, 6) == rational_a_table()[(6, 6)]

    def test_reconstructed_diagonal_entry(self, rational_op):
        assert rational_op.a_entry(6, 6) == MPoly(
            "t", {(0, 1, 2, 0): -6, (1, 0, 1, 1): -3}
        )

    def test_trig_second_order_entry(self):
        b2 = F(1, 4)
        a = trig_a_table(b2)
        expected = MPoly(
            "tau",
            {
                (1, 0, 0, 0): 4,
                (2, 0, 0, 0): -4 * b2,
                (0, 1, 0, 0): F(-32, 3) * b2**2,
                (0, 0, 1, 0): F(-128, 9) * b2**3,
            },
        )
        assert a[(1, 1)] == expected

    def test_trig_first_order_image(self, trig_op, trig_params):
        nu, mu, b2 = trig_params.nu, trig_params.mu, trig_params.beta2
        expected = MPoly(
            "tau",
            {
                (0, 0, 0, 0): 8 + 48 * (nu + mu),
                (1, 0, 0, 0): -8 * b2 * (1 + 5 * nu + 6 * mu),
            },
        )
        assert trig_op.apply(TAU1) == expected

    def test_trig_limit_is_twice_the_rational_table(self):
        rat = rational_a_table()
        limit = trig_a_table(F(0))
        for key, poly in rat.items():
            assert MPoly("t", limit[key].terms) == 2 * poly


class TestInvariantMaps:
    def test_symmetric_point_collapses(self):
        assert variables_rational((1, 1, 1, 1)) == (4, 0, 0, 0)

    def test_origin(self):
        assert variables_rational((0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_single_axis(self):
        assert variables_rational((1, 0, 0, 0)) == (1, 0, 0, 0)

    def test_invariance_under_reflection_group(self):
        sampler = SeededSampler(3)
        for _ in range(5):
            x = sampler.point()
            base = variables_rational(x)
            # coordinate permutation
            assert variables_rational((x[2], x[0], x[3], x[1])) == base
            # sign flips
            assert variables_rational((-x[0], x[1], -x[2], x[3])) == base
            # reflection through the hyperplane of the root (1,1,1,1)/2
            shift = sum(x) / 2
            assert variables_rational(tuple(v - shift for v in x)) == base

    @pytest.mark.parametrize("frame", sorted(FRAME_VARS))
    def test_sigma_polys_follow_the_combinations_order(self, frame):
        # the trig oracle's mpf sums follow this term order
        for k, sigma in enumerate(sigma_polys(frame), start=1):
            want = [tuple(int(s in combo) for s in range(4)) for combo in combinations(range(4), k)]
            assert list(sigma.terms) == want
            assert all(type(c) is F and c == 1 for c in sigma.terms.values())

    @staticmethod
    def written_out(vals):
        """The four elementary symmetric functions, term by term."""
        v1, v2, v3, v4 = vals
        return [
            v1 + v2 + v3 + v4,
            v1 * v2 + v1 * v3 + v1 * v4 + v2 * v3 + v2 * v4 + v3 * v4,
            v1 * v2 * v3 + v1 * v2 * v4 + v1 * v3 * v4 + v2 * v3 * v4,
            v1 * v2 * v3 * v4,
        ]

    @staticmethod
    def same_floats(got, want) -> bool:
        """Bit for bit, except that any two NaNs match: CPython does not fix
        the sign of a NaN that + or * makes from NaNs of both signs."""
        def bits(values):
            return [None if math.isnan(v) else struct.pack("<d", v) for v in values]

        return bits(got) == bits(want)

    @given(st.lists(st.floats(), min_size=4, max_size=4))
    @example([-0.0, -0.0, -0.0, -0.0])
    @example([-0.0, 1.0, 2.0, 3.0])
    @example([1e16, 1.0, -1e16, 1.0])
    @example([float("inf"), -0.0, 1.0, float("-inf")])
    def test_elem_sym_floats_bit_for_bit(self, vals):
        assert self.same_floats(elem_sym_values(vals), self.written_out(vals))

    def test_nans_of_both_signs_match_whatever_the_call(self):
        # the written-out sum gives +nan on its first calls here and -nan once
        # the interpreter has specialized its +; the library gives +nan
        neg, pos = struct.unpack("<dd", bytes.fromhex("000000000000f8ff000000000000f87f"))
        vals = [neg, pos, 1.0, 2.0]
        for _ in range(20):
            assert self.same_floats(elem_sym_values(vals), self.written_out(vals))
        assert not self.same_floats([neg, 0.0], [pos, -0.0])  # signed zeros stay bitwise

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    def test_elem_sym_mpf_bit_for_bit(self, vals):
        ctx = mpmath.mp.clone()
        ctx.prec = 70
        vals = [ctx.mpf(v) / 3 for v in vals]
        assert ([v._mpf_ for v in elem_sym_values(vals)]
                == [v._mpf_ for v in self.written_out(vals)])

    @pytest.mark.parametrize("frame", sorted(FRAME_VARS))
    def test_elem_sym_mpoly_variables_term_for_term(self, frame):
        xs = [MPoly.variable(frame, s) for s in range(4)]
        for got, want in zip(elem_sym_values(xs), self.written_out(xs), strict=True):
            assert (got.frame, list(got.terms.items())) == (want.frame, list(want.terms.items()))

    def test_circle_points_are_cos_sin_or_cosh_sinh(self):
        # tan(theta / 2) = 1/2: (cos, sin) theta = (3, 4) / 5;
        # r = e^phi = 2: (cosh, sinh) phi = (5, 3) / 4
        assert circle_points([F(1, 2)], F(1, 4)) == [(3, 4, 5)]
        assert circle_points([F(2)], F(-1, 4)) == [(5, 3, 4)]
        for beta2, eps in ((F(1, 4), 1), (F(-1, 4), -1)):
            for a, b, d in circle_points([F(2), F(1, 3), 5, F(7, 2)], beta2):
                assert d > 0 and a * a + eps * b * b == d * d

    def test_trig_map_vanishes_at_origin(self):
        assert variables_trig((0.0, 0.0, 0.0, 0.0), 0.5) == (0, 0, 0, 0)

    def test_trig_map_follows_operand_precision(self):
        import mpmath

        ctx, fine = mpmath.mp.clone(), mpmath.mp.clone()
        ctx.prec, fine.prec = 200, 400
        beta = ctx.mpf(1) / 3
        x = [ctx.mpf(v) / 7 for v in (1, 2, 3, 5)]
        tau = variables_trig(x, beta)
        ref = variables_trig([fine.convert(v) for v in x], fine.convert(beta))
        assert all(type(v) is ctx.mpf for v in tau)
        for a, b in zip(tau, ref):
            assert abs(a - b) <= fine.mpf(2) ** -190 * max(1, abs(b))

    def test_trig_map_periodicity(self):
        import mpmath

        ctx = mpmath.mp.clone()
        ctx.prec = 120
        beta = ctx.mpf(1) / 3
        x = [ctx.mpf(v) / 7 for v in (1, 2, 3, 5)]
        shifted = [x[0] + ctx.pi / beta] + x[1:]
        base = variables_trig(x, beta)
        moved = variables_trig(shifted, beta)
        for a, b in zip(base, moved):
            assert abs(a - b) <= ctx.mpf(10) ** -10 * max(1, abs(a))


class TestShearMaps:
    def test_rho_fixes_first_variable(self, trig_params):
        fwd, _ = build_rho_map(trig_params.beta2)
        assert fwd.images[0] == TAU1

    def test_rho_pair_is_inverse(self, trig_params):
        fwd, inv = build_rho_map(trig_params.beta2)
        assert is_inverse_pair(fwd, inv)

    def test_rho_corrections_never_raise_the_grade(self, trig_params):
        fwd, _ = build_rho_map(trig_params.beta2)
        f = (1, 2, 2, 3)
        for slot in range(4):
            image = fwd.images[slot]
            lead = [0, 0, 0, 0]
            lead[slot] = 1
            bound = weighted_grade(lead, f)
            assert all(weighted_grade(e, f) <= bound for e in image.terms)

    def test_rho_singular_at_zero(self):
        with pytest.raises(SingularMapError):
            build_rho_map(F(0))

    def test_ambiguity_identity_at_zero(self):
        fwd, inv = ambiguity_map()
        for slot in range(4):
            assert fwd.images[slot] == MPoly.variable("t", slot)
            assert inv.images[slot] == MPoly.variable("t", slot)

    def test_ambiguity_cubic_shift(self):
        fwd, _ = ambiguity_map(a=F(1))
        t1, t3 = MPoly.variable("t", 0), MPoly.variable("t", 1)
        assert t3.substitute(fwd) == t3 + t1**3

    def test_ambiguity_inverse_composition(self):
        fwd, inv = ambiguity_map(
            a=F(1), b1=F(-1, 2), b2=F(2), c1=F(1, 3), c2=F(-1), c3=F(1), c4=F(2)
        )
        assert is_inverse_pair(fwd, inv)
