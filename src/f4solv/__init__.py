"""Exact solver for the F4 rational and trigonometric integrable models.

The package realizes both models in their algebraic form: second-order
differential operators with polynomial coefficients in reflection-
invariant variables, acting on a nested flag of graded polynomial
spaces.  Everything spectral is computed by exact rational linear
algebra and cross-validated against an independent Cartesian-coordinate
evaluation of the gauge-rotated Hamiltonians.

Each exported name is imported from its module on first use.
"""

import importlib

_EXPORTS = {
    "errors": """CalibrationError ClosureError DerivationError F4SolvError FrameError
        MapError PoleError ReductionError SingularMapError""",
    "flags": """GradedBasis KNOWN_CHARACTERISTIC_VECTORS ambiguity_search enumerate_basis
        flag_dimension is_triangular preserves_flag scan_characteristic_vectors""",
    "gauge": "grad_log_ground_state_rational grad_log_ground_state_trig",
    "invariants": "variables_rational variables_trig",
    "linalg": "RatMatrix nullspace solve",
    "models": """ModelParams RATIONAL TRIG ambiguity_map build_rational_operator
        build_rho_map build_trig_operator""",
    "operators": "MatrixResult SecondOrderOp op_matrix",
    "oracle": """Calibration calibrate_normalization cartesian_oracle derive_missing_a66
        invariant_reduce oracle_sweep_rational oracle_sweep_trig""",
    "poly": "MINIMAL_CHARVEC MPoly VarMap build_triangular_map",
    "spectral": """EigenReport SpectralLine closed_form_energy_rational closed_form_energy_trig
        degeneracy_count eigenfunctions fit_energy_affine spectrum_from_matrix""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
