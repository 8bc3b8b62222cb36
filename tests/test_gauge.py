from fractions import Fraction as F

import mpmath
import pytest

from f4solv.errors import PoleError
from f4solv.gauge import (
    grad_log_ground_state_circle,
    grad_log_ground_state_rational,
    grad_log_ground_state_trig,
    mp_context,
)
from f4solv.invariants import HALF_SUM_SIGNS
from f4solv.models import ModelParams
from f4solv.sampling import SeededSampler


def log_abs_ground_state_rational(params, x, ctx):
    """log |Psi0| for the rational model: the finite-difference reference."""
    nu, mu, omega = params.nu, params.mu, params.require_omega()
    xs = [ctx.mpf(str(v)) if isinstance(v, float) else ctx.mpf(v) for v in x]
    acc = ctx.mpf(0)
    for i in range(4):
        for j in range(i + 1, 4):
            acc += nu * ctx.log(abs(xs[j] + xs[i]))
            acc += nu * ctx.log(abs(xs[j] - xs[i]))
    for v in xs:
        acc += mu * ctx.log(abs(v))
    for signs in HALF_SUM_SIGNS:
        acc += mu * ctx.log(abs(sum(s * v for s, v in zip(signs, xs))))
    acc -= omega * sum(v * v for v in xs) / 2
    return acc


def log_abs_ground_state_trig(params, x, beta, ctx):
    """log |Psi0| for the periodic model: the finite-difference reference."""
    nu, mu = params.nu, params.mu
    beta = ctx.mpf(beta)
    xs = [ctx.mpf(str(v)) if isinstance(v, float) else ctx.mpf(v) for v in x]
    acc = ctx.mpf(0)
    for i in range(4):
        for j in range(i + 1, 4):
            acc += nu * ctx.log(abs(ctx.sin(beta * (xs[j] + xs[i]))))
            acc += nu * ctx.log(abs(ctx.sin(beta * (xs[j] - xs[i]))))
    for v in xs:
        acc += mu * ctx.log(abs(ctx.sin(2 * beta * v)))
    for signs in HALF_SUM_SIGNS:
        arg = beta * sum(s * v for s, v in zip(signs, xs))
        acc += mu * ctx.log(abs(ctx.sin(arg)))
    return acc


def finite_difference(fn, xs, ctx, h=None):
    h = h or ctx.mpf(10) ** (-ctx.dps // 3)
    grad = []
    for k in range(4):
        up = list(xs)
        down = list(xs)
        up[k] += h
        down[k] -= h
        grad.append((fn(up) - fn(down)) / (2 * h))
    return grad


class TestRationalGradient:
    def test_free_case_is_pure_gaussian(self):
        params = ModelParams(nu=F(0), mu=F(0), omega=F(2))
        x = (F(1), F(2), F(3), F(5))
        assert grad_log_ground_state_rational(params, x) == (-2, -4, -6, -10)

    def test_matches_finite_differences(self, rational_params):
        ctx = mp_context()
        sampler = SeededSampler(7)
        for _ in range(3):
            x = sampler.point()
            exact = grad_log_ground_state_rational(rational_params, x)
            xs = [ctx.mpf(v.numerator) / v.denominator for v in x]
            approx = finite_difference(
                lambda p: log_abs_ground_state_rational(rational_params, p, ctx),
                xs,
                ctx,
            )
            for e, a in zip(exact, approx):
                ef = ctx.mpf(e.numerator) / e.denominator
                assert abs(ef - a) <= ctx.mpf("1e-8") * max(1, abs(ef))

    def test_antisymmetry(self, rational_params):
        sampler = SeededSampler(11)
        x = sampler.point()
        neg = tuple(-v for v in x)
        plus = grad_log_ground_state_rational(rational_params, x)
        minus = grad_log_ground_state_rational(rational_params, neg)
        assert tuple(-v for v in plus) == minus

    def test_pole_error_names_the_factor(self, rational_params):
        with pytest.raises(PoleError) as err:
            grad_log_ground_state_rational(rational_params, (F(1), F(1), F(2), F(3)))
        assert "x1-x2" in str(err.value)
        with pytest.raises(PoleError):
            grad_log_ground_state_rational(rational_params, (F(0), F(1), F(2), F(3)))


class TestTrigGradient:
    def test_free_case_vanishes(self):
        ctx = mp_context()
        params = ModelParams(nu=F(0), mu=F(0), beta2=F(1, 4))
        grad = grad_log_ground_state_trig(
            params, [ctx.mpf(v) / 10 for v in (1, 2, 3, 5)], ctx.mpf(1) / 2
        )
        assert all(v == 0 for v in grad)

    def test_matches_finite_differences(self, trig_params):
        ctx = mp_context()
        beta = ctx.sqrt(ctx.mpf(1) / 4)
        xs = [ctx.mpf(v) / 10 for v in (1, 3, 6, 9)]
        exact = grad_log_ground_state_trig(trig_params, xs, beta)
        approx = finite_difference(
            lambda p: log_abs_ground_state_trig(trig_params, p, beta, ctx), xs, ctx
        )
        for e, a in zip(exact, approx):
            assert abs(e - a) <= ctx.mpf("1e-8") * max(1, abs(e))

    def test_componentwise_periodicity(self, trig_params):
        ctx = mp_context()
        beta = ctx.sqrt(ctx.mpf(1) / 4)
        xs = [ctx.mpf(v) / 10 for v in (1, 3, 6, 9)]
        shifted = [xs[0] + ctx.pi / beta] + xs[1:]
        base = grad_log_ground_state_trig(trig_params, xs, beta)
        moved = grad_log_ground_state_trig(trig_params, shifted, beta)
        for a, b in zip(base, moved):
            assert abs(a - b) <= ctx.mpf("1e-20") * max(1, abs(a))

    def test_given_context(self, trig_params):
        ctx = mp_context()
        beta = ctx.sqrt(ctx.mpf(1) / 4)
        xs = [ctx.mpf(v) / 10 for v in (1, 3, 6, 9)]
        fresh = grad_log_ground_state_trig(trig_params, xs, beta)
        shared = grad_log_ground_state_trig(trig_params, xs, beta, ctx)
        assert [g._mpf_ for g in shared] == [g._mpf_ for g in fresh]
        assert all(type(g) is ctx.mpf for g in shared)
        assert not any(type(g) is ctx.mpf for g in fresh)

    def test_exact_inputs_are_rounded_to_nearest(self):
        # mpmath converts a Fraction by truncation; at 200 bits 1/3 then lands
        # on the dyadic below, while the nearest dyadic lies above
        ctx = mp_context()
        man, exp = ctx.make_mpf(mpmath.libmp.from_rational(1, 3, ctx.prec, "n")).man_exp
        nearest = F(man) * F(2) ** exp
        assert nearest > F(1, 3)
        xs = [ctx.mpf(v) / 10 for v in (1, 3, 6, 9)]

        def bits(nu, mu, beta):
            params = ModelParams(nu=nu, mu=mu, beta2=F(1, 4))
            return [g._mpf_ for g in grad_log_ground_state_trig(params, xs, beta, ctx)]

        half = ctx.mpf(1) / 2
        assert bits(F(1, 3), F(1, 8), half) == bits(nearest, F(1, 8), half)
        assert bits(F(1, 8), F(1, 3), half) == bits(F(1, 8), nearest, half)
        assert bits(F(1, 3), F(1, 8), F(1, 3)) == bits(F(1, 3), F(1, 8), nearest)

    def test_pole_detection(self, trig_params):
        ctx = mp_context()
        beta = ctx.mpf(1) / 2
        with pytest.raises(PoleError):
            grad_log_ground_state_trig(
                trig_params, [ctx.mpf(0), ctx.mpf(1), ctx.mpf(2), ctx.mpf(3)], beta
            )


class TestCircleGradient:
    """The exact periodic gradient at unit-circle parameters is the mpmath
    gradient at the real point, divided by |beta|."""

    @pytest.mark.parametrize("beta2", [F(1, 4), F(3, 7), F(-1, 4), F(-3, 7)])
    def test_equals_the_mpmath_gradient_at_the_real_point(self, beta2):
        params = ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=beta2)
        ctx = mp_context()
        b = ctx.sqrt(ctx.mpf(abs(beta2.numerator)) / beta2.denominator)
        sampler = SeededSampler(5)
        for _ in range(3):
            x = sampler.point(beta2)
            ps = [ctx.mpf(v.numerator) / v.denominator for v in x]
            if beta2 > 0:  # t = tan(beta x / 2)
                xs, beta = [2 * ctx.atan(v) / b for v in ps], b
            else:  # r = exp(|beta| x), beta = i |beta|
                xs, beta = [ctx.log(v) / b for v in ps], ctx.mpc(0, b)
            exact = grad_log_ground_state_circle(params, x)
            ref = grad_log_ground_state_trig(params, xs, beta, ctx)
            for e, r in zip(exact, ref):
                ef = ctx.mpf(e.numerator) / e.denominator * b
                assert abs(ef - r) <= ctx.mpf(2) ** -150 * max(1, abs(r))

    def test_pole_error_names_the_root(self):
        params = ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=F(1, 4))
        with pytest.raises(PoleError) as err:  # theta_1 = theta_2
            grad_log_ground_state_circle(params, (F(1, 2), F(1, 2), F(1, 3), F(2, 5)))
        assert err.value.factor == "x1-x2"
        with pytest.raises(PoleError) as err:  # theta_1 = pi / 2, so sin 2 theta_1 = 0
            grad_log_ground_state_circle(params, (1, F(1, 2), F(1, 3), F(2, 5)))
        assert err.value.factor == "x1"
        hyper = ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=F(-1, 4))
        with pytest.raises(PoleError) as err:  # phi_1 + phi_2 = 0
            grad_log_ground_state_circle(hyper, (F(2), F(1, 2), F(3), F(5, 2)))
        assert err.value.factor == "x1+x2"
