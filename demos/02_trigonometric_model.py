"""The trigonometric model: same flag, but triangular only after a shear.

The periodic-model operator preserves the same (1,2,2,3) flag as the
rational one, yet its matrix mixes monomials inside each grade in both
directions, so no monomial order makes it triangular.  A shear that is
singular in beta repairs this: in the sheared (rho) frame the matrix is
strictly triangular and the quadratic spectrum can be read off the
diagonal.
"""

from fractions import Fraction as F

from f4solv import (
    F4SolvError,
    ModelParams,
    build_rho_map,
    build_trig_operator,
    enumerate_basis,
    is_triangular,
    nullspace,
    op_matrix,
    spectrum_from_matrix,
)
from f4solv.spectral import attach_closed_form, fit_energy_affine

params = ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=F(1, 4))
op = build_trig_operator(params)
f = (1, 2, 2, 3)

print("== tau frame: flag preserved, NOT triangular ==")
verdict = is_triangular(op, f, 4)
print(f"  strictly triangular: {verdict.strict}")
print(f"  grade-non-increasing (block) form: {verdict.preserved}")
print(f"  violating entry: {verdict.violation}")

basis = enumerate_basis(f, 2, frame="tau")
matrix = op_matrix(op, basis).matrix
print("  matrix on P_2, basis", basis.monomials)
width = max(len(str(v)) for row in matrix.data for v in row)
for row in matrix.data:
    print("   ", " ".join(str(v).rjust(width) for v in row))

print("\n== the shear to the rho frame (singular in beta) ==")
fwd, inv = build_rho_map(params.beta2)
for slot, name in zip(range(4), ("rho1", "rho3", "rho4", "rho6")):
    print(f"  {name} = {fwd.images[slot]}")

rho_op = op.change_variables(fwd, inv)
print("\n== rho frame: strictly triangular ==")
print("  strictly triangular at level 6:", is_triangular(rho_op, f, 6).strict)

spectrum = spectrum_from_matrix(rho_op, f, 4)
lines = attach_closed_form(spectrum.lines, "trig", params)
fit = fit_energy_affine(lines)
print(f"\n  closed_form = {fit.scale} * diagonal + {fit.offset}  (exact: {fit.exact})")
for line in lines[:7]:
    print(
        f"  p={line.quantum_numbers}  diagonal={line.eigenvalue}"
        f"  closed_form={line.closed_form_energy}"
    )

print("\n== cross-check: the tau matrix has the rho diagonal as its spectrum ==")
try:
    spectrum_from_matrix(op, f, 4)
except F4SolvError as exc:
    print(f"  tau frame alone: {exc}")
tau = op_matrix(op, enumerate_basis(f, 4, frame="tau")).matrix
dims = {lam: len(nullspace(tau.minus_scalar_identity(lam)))
        for lam in sorted({l.eigenvalue for l in spectrum.lines})}
print(f"  a tau eigenvector at each of the {len(dims)} rho-diagonal eigenvalues: {all(dims.values())}")
print(f"  tau eigenspace dimensions sum to dim P_4 = {len(spectrum.lines)}: "
      f"{sum(dims.values()) == len(spectrum.lines)}")
