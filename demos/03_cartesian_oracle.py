"""Cross-validating the operators against the Cartesian gauge identity.

Conjugating the Hamiltonian by its ground state and changing variables
should reproduce the algebraic operators exactly.  Evaluating that
gauge identity directly in Cartesian coordinates (Laplacian plus twice
the log-gradient drift, applied to the composed polynomial) gives an
independent oracle for every coefficient.  The overall normalization
between the two computations is not assumed: a small candidate set of
scales is fitted and then must hold everywhere.

The same machinery re-derives the one second-order coefficient the
printed tables leave out (the t6 diagonal) along two independent routes
and checks both against the tabulated value.
"""

from fractions import Fraction as F

from f4solv import (
    ModelParams,
    build_rational_operator,
    calibrate_normalization,
    cartesian_oracle,
    derive_missing_a66,
    invariant_reduce,
)
from f4solv.invariants import variables_rational
from f4solv.models import rational_a_table
from f4solv.oracle import oracle_sweep_rational, oracle_sweep_trig
from f4solv.poly import MPoly

rational = ModelParams(nu=F(1, 3), mu=F(1, 5), omega=F(1))
trig = ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=F(1, 4))

print("== Calibration ==")
cal_r = calibrate_normalization("rational", rational)
cal_t = calibrate_normalization("trig", trig)
print(f"  rational: scale {cal_r.scale}, offset {cal_r.offset}, drift sign {cal_r.drift_sign}")
print(f"  trig:     scale {cal_t.scale}, offset {cal_t.offset}")
print(
    "  (drift sign -1 means the tables correspond to the +omega*x drift,\n"
    "   the sign-flipped companion of the normalizable ground state)"
)

print("\n== Point check ==")
op = build_rational_operator(rational)
p = MPoly.variable("t", 0) ** 2 - 3 * MPoly.variable("t", 2)
x = (F(1), F(2), F(3), F(5))
lhs = op.apply(p).eval_exact(variables_rational(x))
rhs = cartesian_oracle("rational", rational, p, x, cal_r)
print(f"  P = {p}, x = ({', '.join(str(v) for v in x)})")
print(f"  algebraic operator: {lhs}")
print(f"  Cartesian oracle:   {rhs}   equal: {lhs == rhs}")

print("\n== Sweeps ==")
sweep_r = oracle_sweep_rational(rational, n_points=20, n_polys=5)
print(f"  rational: {sweep_r['points']} points x {sweep_r['polynomials']} polynomials,"
      f" exact equality: {sweep_r['passed']}")
sweep_t = oracle_sweep_trig(trig, n_points=20, n_polys=5)
print(f"  trig:     {sweep_t['points']} points x {sweep_t['polynomials']} polynomials,"
      f" exact equality: {sweep_t['passed']}")
print("  (each periodic point has a rational (cos, sin) on the unit circle,\n"
      "   so both sides of every comparison are rational numbers)")

print("\n== Expressing invariants in the t frame ==")
u = [MPoly.variable("x2", k) for k in range(4)]  # u_i = x_i^2
sq_norm = invariant_reduce(sum(u))
print(f"  sum x_i^2           -> {sq_norm}")
grad_sq = invariant_reduce(4 * sum(u))
print(f"  |grad t1|^2         -> {grad_sq}")

print("\n== Re-deriving the tabulated t6 diagonal ==")
a66 = derive_missing_a66(rational)
print(f"  both routes agree exactly: A[6,6] = {a66}")
print(f"  equal to the tabulated entry: {a66 == rational_a_table()[(6, 6)]}")
print(
    "  route 1: invariant reduction of scale * sum_k (d t6/d x_k)^2\n"
    "  route 2: beta^2 -> 0 limit of the complete trigonometric table,\n"
    "           rescaled by the exact table-to-table ratio"
)
