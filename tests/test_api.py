"""The public API, pinned: a change that drops or reshapes an exported name
fails here.  Update the snapshot only together with the README."""

import inspect
import types

import f4solv
from f4solv import SecondOrderOp

#: every public name of ``f4solv`` with how it is called: the signature of
#: a callable, the base class and signature of an exception, None for a
#: constant
PUBLIC = {
    "Calibration": (
        "(model: 'str', scale: 'Fraction', offset: 'Fraction', drift_sign: 'int') -> None"
    ),
    "CalibrationError": "F4SolvError(*args)",
    "ClosureError": "F4SolvError(*args)",
    "DerivationError": "F4SolvError(*args)",
    "EigenReport": (
        "(lines: 'tuple[SpectralLine, ...]', defective_blocks: 'tuple[dict, ...]', "
        "basis: 'GradedBasis') -> None"
    ),
    "F4SolvError": "Exception(*args)",
    "FrameError": "F4SolvError(*args)",
    "GradedBasis": (
        "(f: 'CharVector', n: 'int', monomials: 'tuple[Exp, ...]', "
        "frame: 'str' = 't') -> None"
    ),
    "KNOWN_CHARACTERISTIC_VECTORS": None,
    "MINIMAL_CHARVEC": None,
    "MPoly": "(frame: 'str', terms: 'Mapping[Exp, Scalar] | None' = None)",
    "MapError": "F4SolvError(*args)",
    "MatrixResult": (
        "(matrix: 'RatMatrix', closed: 'bool', witness: 'Optional[tuple[Exp, Exp, "
        "Fraction]]') -> None"
    ),
    "ModelParams": (
        "(nu: 'Fraction', mu: 'Fraction', omega: 'Optional[Fraction]' = None, "
        "beta2: 'Optional[Fraction]' = None) -> None"
    ),
    "PoleError": "F4SolvError(factor: str, point=None)",
    "RATIONAL": None,
    "RatMatrix": "(data: 'Sequence[Sequence[Fraction]]')",
    "ReductionError": "F4SolvError(*args)",
    "SecondOrderOp": (
        "(frame: 'str', a: 'Mapping[tuple[int, int], MPoly]', b: 'Mapping[int, MPoly]', "
        "c: 'MPoly | None' = None)"
    ),
    "SingularMapError": "MapError(*args)",
    "SpectralLine": (
        "(quantum_numbers: 'Optional[QuantumNumbers]', eigenvalue: 'Fraction', "
        "closed_form_energy: 'Optional[Fraction]' = None, "
        "eigenfunction: 'Optional[MPoly]' = None) -> None"
    ),
    "TRIG": None,
    "VarMap": "(source: 'str', target: 'str', images: 'Sequence[MPoly]')",
    "ambiguity_map": (
        "(a: 'Fraction' = 0, b1: 'Fraction' = 0, b2: 'Fraction' = 0, c1: 'Fraction' = 0, "
        "c2: 'Fraction' = 0, c3: 'Fraction' = 0, c4: 'Fraction' = 0) -> 'tuple[VarMap, "
        "VarMap]'"
    ),
    "ambiguity_search": (
        "(op: 'SecondOrderOp', bound: 'int' = 6, n: 'int' = 6, single_height: 'int' = 4, "
        "pair_height: 'int' = 2, stop_at_first: 'bool' = True) -> 'dict'"
    ),
    "build_rational_operator": "(params: 'ModelParams') -> 'SecondOrderOp'",
    "build_rho_map": "(beta2: 'Fraction') -> 'tuple[VarMap, VarMap]'",
    "build_triangular_map": (
        "(new_frame: 'str', old_frame: 'str', corrections: 'Mapping[int, "
        "MPoly]') -> 'tuple[VarMap, VarMap]'"
    ),
    "build_trig_operator": "(params: 'ModelParams') -> 'SecondOrderOp'",
    "calibrate_normalization": (
        "(model: 'str', params: 'ModelParams', seed: 'int' = 0) -> 'Calibration'"
    ),
    "cartesian_oracle": (
        "(model: 'str', params: 'ModelParams', p: 'MPoly', x: 'Sequence', "
        "calibration: 'Optional[Calibration]' = None)"
    ),
    "closed_form_energy_rational": (
        "(p: 'Sequence[int]', params: 'ModelParams') -> 'Fraction'"
    ),
    "closed_form_energy_trig": "(p: 'Sequence[int]', params: 'ModelParams') -> 'Fraction'",
    "degeneracy_count": "(n: 'int') -> 'int'",
    "derive_missing_a66": "(params: 'ModelParams', seed: 'int' = 0) -> 'MPoly'",
    "eigenfunctions": (
        "(op: 'SecondOrderOp', f: 'Sequence[int]', n: 'int') -> 'EigenReport'"
    ),
    "enumerate_basis": (
        "(f: 'Sequence[int]', n: 'int', frame: 'str' = 't') -> 'GradedBasis'"
    ),
    "fit_energy_affine": "(lines: 'Sequence[SpectralLine]') -> 'AffineFit'",
    "flag_dimension": "(f: 'Sequence[int]', n: 'int') -> 'int'",
    "grad_log_ground_state_rational": (
        "(params: 'ModelParams', x: 'Sequence[Fraction]') -> 'tuple[Fraction, Fraction, "
        "Fraction, Fraction]'"
    ),
    "grad_log_ground_state_trig": (
        "(params: 'ModelParams', x: 'Sequence', beta, ctx=None) -> 'list'"
    ),
    "invariant_reduce": "(target: 'MPoly') -> 'MPoly'",
    "is_triangular": (
        "(op: 'SecondOrderOp', f: 'Sequence[int]', n: 'int') -> 'TriangularVerdict'"
    ),
    "nullspace": "(matrix: 'RatMatrix') -> 'list[list[Fraction]]'",
    "op_matrix": "(op: 'SecondOrderOp', basis) -> 'MatrixResult'",
    "oracle_sweep_rational": (
        "(params: 'ModelParams', n_points: 'int' = 20, n_polys: 'int' = 5, "
        "seed: 'int' = 0, level: 'int' = 4, extra_polys: 'Sequence[MPoly]' = ()) -> 'dict'"
    ),
    "oracle_sweep_trig": (
        "(params: 'ModelParams', n_points: 'int' = 20, n_polys: 'int' = 5, "
        "seed: 'int' = 0, level: 'int' = 4) -> 'dict'"
    ),
    "preserves_flag": (
        "(op: 'SecondOrderOp', f: 'Sequence[int]', n: 'int') -> 'FlagVerdict'"
    ),
    "scan_characteristic_vectors": (
        "(op: 'SecondOrderOp', bound: 'int', n: 'int') -> 'ScanResult'"
    ),
    "solve": (
        "(matrix: 'RatMatrix', rhs: 'Sequence[Fraction]') -> 'Optional[list[Fraction]]'"
    ),
    "spectrum_from_matrix": (
        "(op: 'SecondOrderOp', f: 'Sequence[int]', n: 'int') -> 'SpectrumResult'"
    ),
    "variables_rational": (
        "(x: 'Sequence[Fraction]') -> 'tuple[Fraction, Fraction, Fraction, Fraction]'"
    ),
    "variables_trig": "(x: 'Sequence', beta) -> 'tuple'",
}

CHANGE_VARIABLES = "(self, fwd: 'VarMap', inv: 'VarMap') -> \"'SecondOrderOp'\""


def shape(obj):
    if not callable(obj):
        return None
    if isinstance(obj, type) and issubclass(obj, BaseException):
        own = str(inspect.signature(obj)) if "__init__" in vars(obj) else "(*args)"
        return f"{obj.__base__.__name__}{own}"
    return str(inspect.signature(obj))


def public_names():
    # submodules become attributes once imported, so they are not API names
    return sorted(
        name
        for name in dir(f4solv)
        if not name.startswith("_") and not isinstance(getattr(f4solv, name), types.ModuleType)
    )


def test_public_names_are_pinned():
    assert public_names() == sorted(PUBLIC)


def test_exported_signatures_are_pinned():
    assert {name: shape(getattr(f4solv, name)) for name in public_names()} == PUBLIC


def test_change_variables_signature_is_pinned():
    assert str(inspect.signature(SecondOrderOp.change_variables)) == CHANGE_VARIABLES
