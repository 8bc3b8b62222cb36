from fractions import Fraction as F
from itertools import product
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4solv.errors import FrameError, MapError
from f4solv.invariants import t_varmap, tau_varmap
from f4solv.models import ambiguity_map, build_rho_map
from f4solv.poly import (
    MINIMAL_CHARVEC,
    ZERO_EXP,
    EvalPlan,
    MPoly,
    PowerTable,
    VarMap,
    build_triangular_map,
    is_inverse_pair,
    weighted_grade,
)

T1 = MPoly.variable("t", 0)
T3 = MPoly.variable("t", 1)
T4 = MPoly.variable("t", 2)
T6 = MPoly.variable("t", 3)


def fractions(max_num=6, max_den=4):
    return st.builds(
        F,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def exponents(max_exp=3):
    return st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * 4)


def polys(frame="t", max_den=4):
    return st.dictionaries(exponents(), fractions(max_den=max_den), max_size=5).map(
        lambda terms: MPoly(frame, terms)
    )


def exact_polys():
    """Fraction coefficients with denominators 1-12, or their int-scaled copies."""
    return st.tuples(polys(max_den=12), st.booleans()).map(
        lambda pb: pb[0]._times_int(lcm(*(c.denominator for c in pb[0].terms.values())))
        if pb[1]
        else pb[0]
    )


def per_term(terms, point):
    """The formula before the power table: each term's powers multiplied in
    slot order, times its coefficient, and the terms summed in order."""
    acc = None
    for exp, coeff in terms:
        prod = None
        for v, e in zip(point, exp):
            if e:
                q = v**e
                prod = q if prod is None else prod * q
        val = coeff if prod is None else prod * coeff
        acc = val if acc is None else acc + val
    return 0 if acc is None else acc


def same(got, want) -> bool:
    """Equal in type and value; mpf and mpc values equal bit for bit."""

    def bits(v):
        return getattr(v, "_mpf_", getattr(v, "_mpc_", v))

    return type(got) is type(want) and bits(got) == bits(want)


class TestArithmetic:
    def test_additive_inverse(self):
        assert (T1 + (-T1)).is_zero()

    def test_like_term_merge(self):
        assert 2 * T1 * T3 + 3 * T1 * T3 == 5 * T1 * T3

    def test_product_of_variables(self):
        assert T1 * T1 == MPoly.monomial("t", (2, 0, 0, 0))

    def test_difference_of_squares(self):
        assert (T1 + T3) * (T1 - T3) == T1**2 - T3**2

    def test_zero_absorbs(self):
        p = T1**2 * T3 - 7 * T6
        assert (MPoly.zero("t") * p).is_zero()

    def test_frame_mismatch_raises(self):
        with pytest.raises(FrameError):
            T1 + MPoly.variable("tau", 0)
        with pytest.raises(FrameError):
            T1 * MPoly.variable("rho", 0)

    @settings(max_examples=40)
    @given(a=polys(), b=polys(), c=polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def assert_clean(p):
    # the invariants MPoly.__init__ establishes, also for unchecked results
    for exp, coeff in p.terms.items():
        assert type(coeff) is F and coeff != 0
        assert type(exp) is tuple and len(exp) == 4
        assert all(type(e) is int and e >= 0 for e in exp)
    assert p == MPoly(p.frame, p.terms)


class TestTrustedResults:
    @settings(max_examples=60)
    @given(a=polys(), b=polys(), k=fractions(), n=st.integers(-3, 3))
    def test_results_keep_the_invariants(self, a, b, k, n):
        results = [a + b, a - b, -a, a * b, a * k, k * a, a * n, a + n, n - a, a**2]
        results += [a.derivative(s) for s in range(4)]
        for r in results:
            assert_clean(r)
        assert_clean(a - a)
        assert (a - a).is_zero() and not (a - a).terms

    @settings(max_examples=40)
    @given(a=polys(), b=polys(), k=fractions())
    def test_identities_and_inverses(self, a, b, k):
        zero, one = MPoly.zero("t"), MPoly.one("t")
        assert a + zero == a and a * one == a and (a * zero).is_zero()
        assert a + (-a) == zero and a - b == -(b - a)
        assert (a + b) * k == a * k + b * k
        assert (a * b).derivative(0) == a.derivative(0) * b + a * b.derivative(0)

    def test_int_scalar_keeps_int_coefficients(self):
        p = MPoly._trusted("t", {(1, 0, 0, 0): 3, (0, 0, 0, 0): -2})
        q = p * 4
        assert q.terms == {(1, 0, 0, 0): 12, (0, 0, 0, 0): -8}
        assert all(type(c) is int for c in q.terms.values())
        assert all(type(c) is F for c in (T1 * 4 + F(1, 2)).terms.values())
        r = (F(1, 2) * T1 - F(2, 3))._times_int(12)
        assert r.terms == {(1, 0, 0, 0): 6, (0, 0, 0, 0): -8}
        assert all(type(c) is int for c in r.terms.values())

    def test_results_are_independent_of_their_operands(self):
        a = T1 + T3
        total = a + MPoly.zero("t")
        assert total.terms is not a.terms
        assert (a * 1).terms is not a.terms


class TestCalculus:
    def test_derivative_power_rule(self):
        assert (T1**2 * T3).derivative(0) == 2 * T1 * T3

    def test_derivative_of_constant(self):
        assert MPoly.constant("t", F(5, 3)).derivative(2).is_zero()

    def test_derivative_cube(self):
        assert (T6**3).derivative(3) == 3 * T6**2

    @settings(max_examples=30)
    @given(a=polys(), b=polys())
    def test_leibniz(self, a, b):
        for slot in range(4):
            lhs = (a * b).derivative(slot)
            rhs = a.derivative(slot) * b + a * b.derivative(slot)
            assert lhs == rhs


class TestEval:
    def test_variable_value(self):
        assert T1.eval_exact((4, 0, 0, 0)) == 4

    def test_monomial_value(self):
        assert (T1**2 * T3).eval_exact((2, 3, 0, 0)) == 12

    def test_zero_eval(self):
        assert MPoly.zero("t").eval_exact((1, 2, 3, 4)) == 0

    @settings(max_examples=60)
    @given(p=polys(), point=st.tuples(*[fractions(3, 3)] * 4))
    def test_eval_exact_equals_term_by_term(self, p, point):
        expected = F(0)
        for exp, coeff in p.terms.items():
            term = coeff
            for v, e in zip(point, exp):
                term *= v**e
            expected += term
        assert p.eval_exact(point) == expected
        # one table shared with other polynomials gives the same value
        table = PowerTable(point)
        EvalPlan(p * p + T6**4)(table)
        assert EvalPlan(p)(table) == expected

    @settings(max_examples=30)
    @given(a=polys(), b=polys(), point=st.tuples(*[fractions(3, 3)] * 4))
    def test_eval_is_ring_homomorphism(self, a, b, point):
        assert (a * b).eval_exact(point) == a.eval_exact(point) * b.eval_exact(point)
        assert (a + b).eval_exact(point) == a.eval_exact(point) + b.eval_exact(point)


class TestEvalPaths:
    """The point's number type picks the loop: integer numerators over one
    denominator for ints and Fractions, the generic loop otherwise.  Exact
    values are the Fraction sum, and the generic loop's are the
    term-by-term sum."""

    @settings(max_examples=150, deadline=None)
    @given(
        ps=st.lists(exact_polys(), min_size=1, max_size=4),
        point=st.tuples(*[st.one_of(st.integers(-6, 6), fractions(6, 12))] * 4),
    )
    def test_exact_path_is_the_fraction_sum_in_value_and_type(self, ps, point):
        table = PowerTable(point)
        assert table.denominator is not None
        # one table, plans of different degree and denominator, each met twice
        for p in ps + ps[::-1]:
            want = F(per_term(p.terms.items(), point))
            assert same(EvalPlan(p)(table), want)
            assert same(p.eval_exact(point), want)

    def test_exact_path_on_constant_and_empty_polynomials(self):
        polys_ = [
            MPoly.zero("t"),
            MPoly.constant("t", F(-7, 12)),
            MPoly.constant("t", 5)._times_int(1),  # an int coefficient
            (T3 - 4)._times_int(1),
            MPoly("t", {ZERO_EXP: F(1, 3), (2, 0, 0, 1): F(-5, 11)}),
        ]
        for point in ((0, 0, 0, 0), (F(1, 12), -3, 0, F(-5, 7)), (2, -1, 0, 4), (0, F(2, 3), 7, 1)):
            table = PowerTable(point)
            for p in polys_ + polys_[::-1]:
                want = F(per_term(p.terms.items(), point))  # a Fraction, even from an int plan
                assert same(EvalPlan(p)(table), want)
                assert same(p.eval_exact(point), want)

    def test_mpc_inf_and_nan_points_take_the_generic_loop(self):
        ctx = mpmath.mp.clone()
        ctx.prec = 113
        third = ctx.mpf(1) / 3
        p = (F(3, 7) * T1**3 - F(1, 3) * T3 * T4**2 + F(2, 9)) * (T1 - F(5, 11) * T6)
        points = [
            [ctx.sqrt(ctx.mpf(-2)), third, ctx.mpc(1, -3) / 7, ctx.mpf(-5)],
            [ctx.mpc(v, 0) / 7 for v in (2, 3, 5, 11)],
            [ctx.inf, third, ctx.mpf(0), ctx.mpf(-2)],
            [third, -ctx.inf, ctx.mpf(1), ctx.mpf(2)],
            [third, ctx.mpf(1), ctx.nan, ctx.mpf(2)],
        ]
        for point in points:
            table = PowerTable(point)
            assert table.denominator is None
            for q in (p, p * T3 - F(1, 3), MPoly.constant("t", F(1, 3)) + T6):
                assert same(EvalPlan(q)(table), per_term(q.terms.items(), point))

    def test_eval_float_keeps_the_generic_loop(self):
        ctx = mpmath.mp.clone()
        ctx.prec = 53
        wide = MPoly("t", {(1, 0, 0, 2): F(3**100 + 1), ZERO_EXP: F(-1, 3)})._times_int(3)
        assert wide.terms[(1, 0, 0, 2)].bit_length() > 53
        p = (F(3, 7) * T1**3 - F(1, 3) * T3 * T4**2 + F(2, 9)) * (T1 - F(5, 11) * T6)
        mixed = [ctx.mpf(2) / 7, 0.5, F(1, 3), ctx.mpf(-3)]
        real = [ctx.sqrt(v) / 7 for v in (2, 3, 5, 11)]  # finite mpf numbers too
        for point in ([0.5, -1.25, 3.0, 2.0**-3], mixed, real):
            assert PowerTable(point).denominator is None
            for q in (wide, p, wide + p):
                assert same(q.eval_float(point), per_term(q.terms.items(), point))


def reference_substitute(p: MPoly, varmap: VarMap) -> MPoly:
    """The substitution loop before it ran on ``EvalPlan``: each image's
    powers cached by repeated multiplication, each term its coefficient
    times its powers in slot order, and the terms summed in order."""
    target = varmap.target
    pow_cache = [{0: MPoly.one(target)} for _ in range(4)]

    def image_power(slot, k):
        cache = pow_cache[slot]
        if k not in cache:
            cache[k] = image_power(slot, k - 1) * varmap.images[slot]
        return cache[k]

    acc = MPoly.zero(target)
    for exp, coeff in p.terms.items():
        term = MPoly.constant(target, coeff)
        for slot, e in enumerate(exp):
            if e:
                term = term * image_power(slot, e)
        acc = acc + term
    return acc


#: exponents of weighted grade at most 6, the operator coefficients' range
GRADE_6 = [e for e in product(range(7), repeat=4) if weighted_grade(e, MINIMAL_CHARVEC) <= 6]


def frame_changes():
    """t -> x^2, tau -> sin^2 at three beta^2, either direction of the rho
    shear at a random beta^2, and either map of a random redefinition."""
    return st.one_of(
        st.builds(t_varmap),
        st.sampled_from((F(1, 8), F(3, 7), F(1, 4))).map(tau_varmap),
        st.tuples(fractions(3, 4).filter(bool), st.booleans()).map(
            lambda bd: build_rho_map(bd[0])[bd[1]]
        ),
        st.tuples(st.lists(fractions(3, 2), min_size=7, max_size=7), st.booleans()).map(
            lambda vd: ambiguity_map(*vd[0])[vd[1]]
        ),
    )


def shear_corrections(a, b2, c4):
    return {
        1: MPoly("t", {(3, 0, 0, 0): a}),
        2: MPoly("t", {(1, 1, 0, 0): b2}),
        3: MPoly("t", {(0, 2, 0, 0): c4}),
    }


class TestSubstitution:
    def test_identity_map_fixes_polynomials(self):
        p = 2 * T1**3 - F(7, 2) * T3 * T6
        ident = VarMap("t", "t", [MPoly.variable("t", s) for s in range(4)])
        assert p.substitute(ident) == p

    def test_cubic_shear_image(self):
        fwd, _ = build_triangular_map("t", "t", {1: T1**3})
        assert T3.substitute(fwd) == T3 + T1**3

    def test_missing_image_rejected(self):
        with pytest.raises(MapError):
            VarMap("t", "t", [T1, T3, T4])

    def test_correction_may_only_use_earlier_slots(self):
        with pytest.raises(MapError):
            build_triangular_map("t", "t", {1: T4})

    @settings(max_examples=25)
    @given(
        p=polys(),
        a=fractions(3, 2),
        b2=fractions(3, 2),
        c4=fractions(3, 2),
    )
    def test_shear_inverse_roundtrip(self, p, a, b2, c4):
        fwd, inv = build_triangular_map("t", "t", shear_corrections(a, b2, c4))
        assert is_inverse_pair(fwd, inv)
        assert p.substitute(fwd).substitute(inv) == p

    @settings(max_examples=40)
    @given(
        p=st.dictionaries(exponents(2), fractions(), max_size=3),
        q=st.dictionaries(exponents(2), fractions(), max_size=3),
        images=st.lists(
            st.dictionaries(exponents(1), fractions(3, 2), max_size=2),
            min_size=4,
            max_size=4,
        ),
    )
    def test_substitution_is_a_ring_homomorphism(self, p, q, images):
        varmap = VarMap("t", "tau", [MPoly("tau", terms) for terms in images])
        p, q = MPoly("t", p), MPoly("t", q)
        assert (p + q).substitute(varmap) == p.substitute(varmap) + q.substitute(varmap)
        assert (p * q).substitute(varmap) == p.substitute(varmap) * q.substitute(varmap)
        assert MPoly.one("t").substitute(varmap) == MPoly.one("tau")

    @settings(max_examples=80, deadline=None)
    @given(
        varmap=frame_changes(),
        terms=st.dictionaries(st.sampled_from(GRADE_6), fractions(), max_size=5),
    )
    def test_substitute_is_the_reference_loop_in_value_and_term_order(self, varmap, terms):
        p = MPoly(varmap.source, terms)
        got, want = p.substitute(varmap), reference_substitute(p, varmap)
        assert got == want
        # only the constant term may move: a leading one is added after the next term
        assert [e for e in got.terms if e != ZERO_EXP] == [e for e in want.terms if e != ZERO_EXP]

    def test_frame_transport(self):
        fwd, inv = build_triangular_map("rho", "tau", {1: MPoly.variable("tau", 0) ** 2})
        tau_poly = MPoly.variable("rho", 1).substitute(fwd)
        assert tau_poly.frame == "tau"
        assert tau_poly.substitute(inv) == MPoly.variable("rho", 1)


class TestDisplayOrder:
    def test_harmonic_frames_put_t1_rich_first(self):
        p = T3 + T1**2
        assert str(p) == "t1^2 + t3"

    def test_rho_frame_reverses_the_direction(self):
        r1 = MPoly.variable("rho", 0)
        r3 = MPoly.variable("rho", 1)
        assert str(r3 + r1**2) == "rho3 + rho1^2"
