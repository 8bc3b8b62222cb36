from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f4solv.errors import ClosureError, FrameError, MapError
from f4solv.flags import KNOWN_CHARACTERISTIC_VECTORS, enumerate_basis, preserves_flag
from f4solv.models import (
    ModelParams,
    ambiguity_map,
    build_rho_map,
    trig_a_table,
    trig_b_table,
)
from f4solv.operators import A_PAIRS, SecondOrderOp, op_matrix
from f4solv.poly import SLOT, VAR_IDS, MPoly, VarMap, is_inverse_pair

T1 = MPoly.variable("t", 0)
T3 = MPoly.variable("t", 1)


def fractions():
    return st.builds(
        F,
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=3),
    )


def polys(frame="t", max_size=4):
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * 4),
        fractions(),
        max_size=max_size,
    ).map(lambda terms: MPoly(frame, terms))


def reference_apply(op, p):
    """The operator action summed as whole polynomials, product by product:
    the former ``apply``, kept as the reference for the term order."""
    first = [p.derivative(s) for s in range(4)]
    acc = MPoly.zero(op.frame)
    for (i, j), coeff in op.a.items():
        d2 = first[SLOT[i]].derivative(SLOT[j])
        if d2.is_zero():
            continue
        term = coeff * d2
        if i != j:
            term = term * 2
        acc = acc + term
    for i, coeff in op.b.items():
        d1 = first[SLOT[i]]
        if not d1.is_zero():
            acc = acc + coeff * d1
    if not op.c.is_zero():
        acc = acc + op.c * p
    return acc


def reference_change_variables(op, fwd, inv):
    """The chain rule written out with derivative tables of the forward map:
    the former ``change_variables``, kept as the reference."""
    if fwd.target != op.frame:
        raise FrameError("forward map must land in the operator frame")
    if not is_inverse_pair(fwd, inv):
        raise MapError("substitution pair is not mutually inverse")

    dphi = [[fwd.images[c].derivative(a) for a in range(4)] for c in range(4)]
    d2phi = [
        [[dphi[c][a].derivative(b) for b in range(4)] for a in range(4)]
        for c in range(4)
    ]

    def sym(a, b):
        key = (VAR_IDS[a], VAR_IDS[b]) if a <= b else (VAR_IDS[b], VAR_IDS[a])
        return op.a.get(key, MPoly.zero(op.frame))

    new_a = {}
    for ci in range(4):
        for di in range(ci, 4):
            acc = MPoly.zero(op.frame)
            for ai in range(4):
                for bi in range(4):
                    coeff = sym(ai, bi)
                    if coeff.is_zero():
                        continue
                    part = dphi[ci][ai] * dphi[di][bi]
                    if not part.is_zero():
                        acc = acc + coeff * part
            if not acc.is_zero():
                new_a[(VAR_IDS[ci], VAR_IDS[di])] = acc.substitute(inv)

    new_b = {}
    for ci in range(4):
        acc = MPoly.zero(op.frame)
        for ai in range(4):
            for bi in range(4):
                coeff = sym(ai, bi)
                if coeff.is_zero():
                    continue
                part = d2phi[ci][ai][bi]
                if not part.is_zero():
                    acc = acc + coeff * part
        for ai in range(4):
            coeff = op.b.get(VAR_IDS[ai])
            if coeff is not None:
                part = dphi[ci][ai]
                if not part.is_zero():
                    acc = acc + coeff * part
        if not acc.is_zero():
            new_b[VAR_IDS[ci]] = acc.substitute(inv)

    new_c = op.c.substitute(inv)
    return SecondOrderOp(fwd.source, new_a, new_b, new_c)


@pytest.fixture(scope="module")
def moved_op(rational_op):
    fwd, inv = ambiguity_map(a=F(1, 2), b2=F(-1), c3=F(2, 3))
    return rational_op.change_variables(fwd, inv)


@pytest.fixture(scope="module")
def frame_ops(rational_op, trig_op, rho_op, moved_op):
    return {"rational": rational_op, "trig": trig_op, "rho": rho_op, "moved": moved_op}


class TestApply:
    def test_annihilates_constants(self, rational_op):
        assert rational_op.apply(MPoly.one("t")).is_zero()

    def test_first_invariant_image(self, rational_op, rational_params):
        nu, mu, w = rational_params.nu, rational_params.mu, rational_params.omega
        expected = 2 * w * T1 + MPoly.constant("t", 24 * (nu + mu + F(1, 6)))
        assert rational_op.apply(T1) == expected

    def test_degree_three_invariant_image(self, rational_op, rational_params):
        nu, mu, w = rational_params.nu, rational_params.mu, rational_params.omega
        expected = 6 * w * T3 - 2 * (nu + mu / 2 + F(1, 4)) * T1**2
        assert rational_op.apply(T3) == expected

    def test_frame_mismatch(self, rational_op):
        with pytest.raises(FrameError):
            rational_op.apply(MPoly.variable("tau", 0))

    def test_mixed_entries_act_twice(self):
        # d^2/dt1 dt3 with unit coefficient applied to t1*t3 gives 2
        op = SecondOrderOp("t", {(1, 3): MPoly.one("t")}, {})
        assert op.apply(T1 * T3) == MPoly.constant("t", 2)
        op_diag = SecondOrderOp("t", {(1, 1): MPoly.one("t")}, {})
        assert op_diag.apply(T1**2) == MPoly.constant("t", 2)

    @settings(max_examples=60)
    @given(
        name=st.sampled_from(["rational", "trig", "rho", "moved"]),
        terms=st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
            st.integers(min_value=-2, max_value=2).filter(bool),
            max_size=8,
        ),
    )
    def test_term_order_is_the_reference_order(self, frame_ops, name, terms):
        # the trig oracle sums image terms in dict order, so the order is pinned
        op = frame_ops[name]
        p = MPoly(op.frame, terms)
        got, want = op.apply(p), reference_apply(op, p)
        assert got == want
        assert list(got.terms) == list(want.terms)

    def test_term_order_after_a_cancelled_partial_sum(self):
        # b1 leaves -t1 in the sum; the c product's first t1 contribution
        # cancels it, its second one brings it back: t1 keeps its place
        op = SecondOrderOp("t", {}, {1: -T1}, 1 + T1)
        p = T1 + 1 + T3
        got = op.apply(p)
        assert list(got.terms) == list(reference_apply(op, p).terms)
        assert list(got.terms) == [
            (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0)
        ]

    @settings(max_examples=25)
    @given(p=polys(), q=polys(), a=fractions(), b=fractions())
    def test_linearity(self, rational_op, p, q, a, b):
        lhs = rational_op.apply(a * p + b * q)
        rhs = a * rational_op.apply(p) + b * rational_op.apply(q)
        assert lhs == rhs


#: fractional coefficients in every part, the potential term C included
POTENTIAL = SecondOrderOp(
    "t", {(1, 3): F(1, 2) * T1, (4, 4): F(-2, 3) * T3}, {6: F(3, 4) * T1}, F(5, 7) * T1 + F(1, 6)
)


class TestConstructor:
    TAU = MPoly.one("tau")

    @pytest.mark.parametrize("a, b, c, error, message", [
        ({(1, 7): T1}, {}, None, ValueError, "bad variable pair (1, 7)"),
        ({}, {2: T1}, None, ValueError, "bad variable index 2"),
        ({(1, 1): TAU}, {}, None, FrameError, "coefficient frame mismatch"),
        ({}, {1: TAU}, None, FrameError, "coefficient frame mismatch"),
        ({}, {}, TAU, FrameError, "coefficient frame mismatch"),
        # entries are checked in order: A before B before C, and in table order
        ({(1, 1): TAU, (1, 7): T1}, {}, None, FrameError, "coefficient frame mismatch"),
        ({(5, 1): TAU}, {}, None, ValueError, "bad variable pair (5, 1)"),
        ({(1, 1): TAU}, {2: T1}, None, FrameError, "coefficient frame mismatch"),
        ({(1, 1): T1}, {2: TAU}, TAU, ValueError, "bad variable index 2"),
        ({}, {1: TAU, 2: T1}, None, FrameError, "coefficient frame mismatch"),
    ], ids=["a-label", "b-label", "a-frame", "b-frame", "c-frame", "a-order", "a-label-first",
            "a-before-b", "b-before-c", "b-order"])
    def test_errors(self, a, b, c, error, message):
        with pytest.raises(error) as info:
            SecondOrderOp("t", a, b, c)
        assert str(info.value) == message

    def test_tables_are_stored_clean(self):
        zero = MPoly.zero("t")
        op = SecondOrderOp("t", {(3, 1): T1, (1, 3): T3, (4, 4): zero, (6, 1): T1 * T3},
                           {1: zero, 4: T3})
        assert op.a == {(1, 3): T3, (1, 6): T1 * T3}  # the later duplicate wins
        assert list(op.a) == [(1, 3), (1, 6)]
        assert op.b == {4: T3}
        assert op.c == zero
        # a zero entry drops, and never deletes an earlier nonzero one
        assert SecondOrderOp("t", {(1, 3): T3, (3, 1): zero}, {}).a == {(1, 3): T3}


class TestIntegerScaling:
    @settings(max_examples=60)
    @given(name=st.sampled_from(["rational", "trig", "rho", "potential"]), data=st.data())
    def test_scaled_operator_gives_the_scaled_image(self, frame_ops, name, data):
        # the t, tau and rho frames, and a potential term
        op = POTENTIAL if name == "potential" else frame_ops[name]
        d, scaled = op.scaled_to_integers()
        p = data.draw(polys(op.frame, max_size=6))
        assert scaled.apply(p) == op.apply(p) * d
        ints = data.draw(
            st.dictionaries(
                st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
                st.integers(min_value=-9, max_value=9).filter(bool),
                max_size=6,
            )
        )
        image = scaled.apply(MPoly._trusted(op.frame, ints))
        assert all(type(c) is int for c in image.terms.values())
        assert image == op.apply(MPoly(op.frame, ints)) * d

    def test_scale_is_the_lcm_of_the_denominators(self, rho_op):
        d, scaled = rho_op.scaled_to_integers()

        def coefficients(op):
            return [c for p in (*op.a.values(), *op.b.values(), op.c) for c in p.terms.values()]

        assert d == lcm(*(c.denominator for c in coefficients(rho_op))) > 1
        assert all(type(c) is int for c in coefficients(scaled))
        assert coefficients(scaled) == [d * c for c in coefficients(rho_op)]


def scaled_apply(op, m):
    """The sorted terms of ``d * op`` applied to t^m, over int: what
    ``op.image(m)`` holds, d being the operator's denominator."""
    _, scaled = op.scaled_to_integers()
    return tuple(sorted(scaled.apply(MPoly._trusted(op.frame, {tuple(m): 1})).terms.items()))


class TestImage:
    @settings(max_examples=60)
    @given(
        name=st.sampled_from(["rational", "trig", "rho", "moved"]),
        m=st.tuples(*[st.integers(min_value=0, max_value=4)] * 4),
    )
    def test_image_is_the_sorted_apply(self, frame_ops, name, m):
        op = frame_ops[name]
        image = op.image(m)
        assert image == scaled_apply(op, m)
        assert all(type(c) is int for _, c in image)
        assert op.image(m) is image
        assert op.image(list(m)) is image

    def test_image_is_computed_once(self, monkeypatch):
        # images come from the shift table, built once per operator; apply is
        # left to polynomials (and to the residual certificate)
        calls = {"apply": 0, "scaled_to_integers": 0}
        for name in calls:
            def counted(self, *args, _name=name, _original=getattr(SecondOrderOp, name)):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(SecondOrderOp, name, counted)
        basis = enumerate_basis((1, 2, 2, 3), 4)  # closed: no term raises the grade
        ops = [SecondOrderOp("t", {(1, 1): T1}, {3: T1 * T1}, MPoly.constant("t", 2))
               for _ in range(2)]
        first = op_matrix(ops[0], basis)
        assert op_matrix(ops[0], basis) == first
        assert calls == {"apply": 0, "scaled_to_integers": 1}
        assert op_matrix(ops[1], basis) == first
        assert calls == {"apply": 0, "scaled_to_integers": 2}

    @settings(max_examples=150, deadline=None)
    @given(
        frame=st.sampled_from(["t", "tau", "rho"]),
        a=st.dictionaries(st.sampled_from(A_PAIRS), polys(max_size=3), max_size=5),
        b=st.dictionaries(st.sampled_from(VAR_IDS), polys(max_size=3), max_size=4),
        c=polys(max_size=3),
        m=st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
    )
    def test_shift_table_image_is_the_sorted_apply(self, frame, a, b, c, m):
        # random tables, mixed entries included; exponents 0 and 1 make some
        # derivatives vanish, so some shifts land on negative exponents
        def in_frame(p):
            return MPoly(frame, p.terms)

        op = SecondOrderOp(
            frame,
            {k: in_frame(p) for k, p in a.items()},
            {k: in_frame(p) for k, p in b.items()},
            in_frame(c),
        )
        assert op.image(m) == scaled_apply(op, m)

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.tuples(*[fractions()] * 7),
        m=st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
    )
    def test_shift_table_of_moved_model_operators(self, rational_op, coeffs, m):
        fwd, inv = ambiguity_map(*coeffs)
        op = rational_op.change_variables(fwd, inv)
        assert op.image(m) == scaled_apply(op, m)

    def test_equality_ignores_the_memo(self, rational_op, moved_op):
        fwd, inv = ambiguity_map(a=F(1, 2), b2=F(-1), c3=F(2, 3))
        fresh = rational_op.change_variables(fwd, inv)
        moved_op.image((1, 1, 0, 0))
        assert fresh == moved_op


class TestMatrix:
    def test_level_one_matrix(self, rational_op, rational_params):
        nu, mu, w = rational_params.nu, rational_params.mu, rational_params.omega
        basis = enumerate_basis((1, 2, 2, 3), 1)
        m = op_matrix(rational_op, basis).matrix
        assert m.data == [[0, 24 * (nu + mu + F(1, 6))], [0, 2 * w]]

    def test_zero_operator_matrix(self):
        op = SecondOrderOp("t", {}, {})
        basis = enumerate_basis((1, 2, 2, 3), 3)
        result = op_matrix(op, basis)
        assert all(v == 0 for row in result.matrix.data for v in row)

    def test_non_closure_raises_naming_the_first_escape(self, rational_op):
        basis = enumerate_basis((1, 1, 1, 1), 2)
        # the first escaping term in basis order, found through apply, not image
        escapes = [
            (m, exp, coeff)
            for m in basis.monomials
            for exp, coeff in sorted(rational_op.apply(MPoly.monomial("t", m)).terms.items())
            if exp not in basis.index()
        ]
        m, exp, coeff = escapes[0]
        assert coeff != 0
        message = f"the image of monomial {list(m)} leaves the basis: {list(exp)}"
        with pytest.raises(ClosureError) as caught:
            op_matrix(rational_op, basis)
        assert str(caught.value) == message

    def test_matrix_reconstructs_images(self, rational_op):
        basis = enumerate_basis((1, 2, 2, 3), 4)
        result = op_matrix(rational_op, basis)
        for j, mono in enumerate(basis.monomials):
            rebuilt = MPoly(
                "t",
                {
                    basis.monomials[i]: result.matrix.data[i][j]
                    for i in range(len(basis))
                },
            )
            assert rebuilt == rational_op.apply(MPoly.monomial("t", mono))

    @staticmethod
    def fills_where_preserved(op, level):
        """The flag check's verdict is the matrix's precondition: wherever
        ``preserves_flag`` holds, ``op_matrix`` fills without raising."""
        held = []
        for f in ((1, 1, 1, 1), *KNOWN_CHARACTERISTIC_VECTORS):
            if preserves_flag(op, f, level):
                basis = enumerate_basis(f, level, op.frame)
                assert len(op_matrix(op, basis).matrix.data) == len(basis)
                held.append(f)
        assert (1, 2, 2, 3) in held

    @pytest.mark.parametrize("level", range(9))
    def test_closure_on_every_level_rational(self, rational_op, level):
        self.fills_where_preserved(rational_op, level)

    @pytest.mark.parametrize("level", range(9))
    def test_closure_on_every_level_trig(self, trig_op, level):
        self.fills_where_preserved(trig_op, level)


class TestChangeVariables:
    def test_identity_change_is_noop(self, rational_op):
        ident = VarMap("t", "t", [MPoly.variable("t", s) for s in range(4)])
        assert rational_op.change_variables(ident, ident) == rational_op

    def test_requires_inverse_pair(self, rational_op):
        fwd, _ = ambiguity_map(a=F(1))
        bad_inv = VarMap("t", "t", [MPoly.variable("t", s) for s in range(4)])
        with pytest.raises(MapError):
            rational_op.change_variables(fwd, bad_inv)

    @settings(max_examples=10)
    @given(
        a=fractions(),
        b2=fractions(),
        c3=fractions(),
        p=polys(),
    )
    def test_transport_commutes_with_application(self, rational_op, a, b2, c3, p):
        # moving the operator and the argument must commute with moving the image
        fwd, inv = ambiguity_map(a=a, b2=b2, c3=c3)
        moved = rational_op.change_variables(fwd, inv)
        lhs = moved.apply(p.substitute(inv))
        rhs = rational_op.apply(p).substitute(inv)
        assert lhs == rhs

    def test_roundtrip_restores_tables(self, rational_op):
        fwd, inv = ambiguity_map(a=F(1, 2), c4=F(-2))
        moved = rational_op.change_variables(fwd, inv)
        back = moved.change_variables(inv, fwd)
        assert back == rational_op

    @settings(max_examples=20, deadline=None)
    @given(coeffs=st.tuples(*[fractions()] * 7), c=polys())
    def test_ambiguity_maps_follow_the_chain_rule(self, rational_op, coeffs, c):
        # all seven parameters, and a potential term C
        op = SecondOrderOp("t", rational_op.a, rational_op.b, c)
        fwd, inv = ambiguity_map(*coeffs)
        assert op.change_variables(fwd, inv) == reference_change_variables(op, fwd, inv)

    @settings(max_examples=15, deadline=None)
    @given(beta2=fractions().filter(bool), nu=fractions(), mu=fractions())
    def test_rho_maps_follow_the_chain_rule(self, beta2, nu, mu):
        # built from the tables, so couplings outside the windows do not warn
        params = ModelParams(nu=nu, mu=mu, beta2=beta2)
        op = SecondOrderOp("tau", trig_a_table(beta2), trig_b_table(params))
        fwd, inv = build_rho_map(beta2)
        assert op.change_variables(fwd, inv) == reference_change_variables(op, fwd, inv)

    @settings(max_examples=20, deadline=None)
    @given(coeffs=st.tuples(*[fractions()] * 7))
    def test_random_ambiguity_map_roundtrips(self, rational_op, coeffs):
        fwd, inv = ambiguity_map(*coeffs)
        moved = rational_op.change_variables(fwd, inv)
        assert moved.change_variables(inv, fwd) == rational_op
