"""Properties of the ground-state pole sum over the F4 positive roots (exact)."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f4solv.errors import PoleError
from f4solv.gauge import grad_log_ground_state_rational, grad_log_ground_state_trig, mp_context
from f4solv.invariants import POSITIVE_ROOTS, is_singular_point, singular_factors
from f4solv.models import ModelParams

PARAMS = ModelParams(nu=F(1, 3), mu=F(1, 5), omega=F(1), beta2=F(1, 4))


def coordinates():
    return st.fractions(min_value=-3, max_value=3, max_denominator=6)


def points():
    return st.tuples(*[coordinates()] * 4)


def swap(i, j):
    def act(x):
        y = list(x)
        y[i], y[j] = y[j], y[i]
        return tuple(y)

    return act


def flip(k):
    def act(x):
        return tuple(-v if i == k else v for i, v in enumerate(x))

    return act


def half_sum_reflection(x):
    """Reflection through the hyperplane of the root (1,1,1,1)/2."""
    shift = sum(x) / 2
    return tuple(v - shift for v in x)


WEYL = [swap(i, j) for i in range(4) for j in range(i + 1, 4)]
WEYL += [flip(k) for k in range(4)] + [half_sum_reflection]


@settings(max_examples=60, deadline=None)
@given(points(), st.sampled_from(WEYL))
def test_rational_gradient_is_weyl_covariant(x, sigma):
    # log Psi0 is invariant under the F4 Weyl group, so its gradient is
    # covariant under these orthogonal generators
    assume(not is_singular_point(x))
    assert grad_log_ground_state_rational(PARAMS, sigma(x)) == sigma(
        grad_log_ground_state_rational(PARAMS, x)
    )


def test_root_table():
    assert len(POSITIVE_ROOTS) == 24
    assert len({alpha for _, alpha, _ in POSITIVE_ROOTS}) == 24
    counts = {c: sum(1 for g, _, _ in POSITIVE_ROOTS if g == c) for c in ("nu", "mu")}
    assert counts == {"nu": 12, "mu": 12}
    # every component sees its six partners, its short root and eight half-sums
    for k in range(4):
        assert sum(1 for _, alpha, _ in POSITIVE_ROOTS if alpha[k]) == 15


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.fractions(min_value=-1, max_value=1, max_denominator=6)] * 4),
    st.sampled_from(POSITIVE_ROOTS),
)
def test_both_gradients_name_the_same_factor(x, root):
    # project onto the root's hyperplane; keep points on exactly one of them
    _, alpha, name = root
    shift = sum(a * v for a, v in zip(alpha, x)) / sum(a * a for a in alpha)
    x = tuple(v - shift * a for v, a in zip(x, alpha))
    assume([n for n, value in singular_factors(x) if value == 0] == [name])
    with pytest.raises(PoleError) as rational:
        grad_log_ground_state_rational(PARAMS, x)
    # beta = 1/2: the sines of small rationals vanish only at rational zero
    with pytest.raises(PoleError) as trig:
        grad_log_ground_state_trig(PARAMS, x, F(1, 2))
    assert rational.value.factor == trig.value.factor == name


def test_trig_gradient_evaluates_each_root_once(monkeypatch):
    ctx = mp_context()
    calls = {"sin": 0, "cos": 0}
    for name in calls:
        def counted(arg, _fn=getattr(ctx, name), _name=name):
            calls[_name] += 1
            return _fn(arg)

        monkeypatch.setattr(ctx, name, counted)
    xs = [ctx.mpf(v) / 10 for v in (1, 3, 6, 9)]
    grad_log_ground_state_trig(PARAMS, xs, ctx.mpf(1) / 2, ctx)
    assert calls == {"sin": 24, "cos": 24}
