"""The public API, pinned: a change that drops or reshapes an exported name
fails here.  Update the snapshot only together with the README."""

import inspect
import types
from fractions import Fraction as F

import pytest

import f4solv
from f4solv import SecondOrderOp

#: every public name of ``f4solv`` with how it is called: the signature of
#: a callable, the base class and signature of an exception, None for a
#: constant
PUBLIC = {
    "Calibration": (
        "(scale: ForwardRef('Fraction'), offset: ForwardRef('Fraction'), "
        "drift_sign: ForwardRef('int'))"
    ),
    "CalibrationError": "F4SolvError(*args)",
    "ClosureError": "F4SolvError(*args)",
    "DerivationError": "F4SolvError(*args)",
    "EigenReport": (
        "(lines: ForwardRef('tuple[SpectralLine, ...]'), "
        "defective_blocks: ForwardRef('tuple[dict, ...]'))"
    ),
    "F4SolvError": "Exception(*args)",
    "FrameError": "F4SolvError(*args)",
    "GradedBasis": "(f: 'CharVector', monomials: 'tuple[Exp, ...]') -> None",
    "KNOWN_CHARACTERISTIC_VECTORS": None,
    "MINIMAL_CHARVEC": None,
    "MPoly": "(frame: 'str', terms: 'Mapping[Exp, Scalar] | None' = None)",
    "MapError": "F4SolvError(*args)",
    "MatrixResult": "(matrix: ForwardRef('RatMatrix'))",
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
        "(quantum_numbers: ForwardRef('Optional[QuantumNumbers]'), "
        "eigenvalue: ForwardRef('Fraction'), "
        "closed_form_energy: ForwardRef('Optional[Fraction]') = None, "
        "eigenfunction: ForwardRef('Optional[MPoly]') = None)"
    ),
    "TRIG": None,
    "VarMap": "(source: 'str', target: 'str', images: 'Sequence[MPoly]')",
    "ambiguity_map": (
        "(a: 'Fraction' = 0, b1: 'Fraction' = 0, b2: 'Fraction' = 0, c1: 'Fraction' = 0, "
        "c2: 'Fraction' = 0, c3: 'Fraction' = 0, c4: 'Fraction' = 0) -> 'tuple[VarMap, "
        "VarMap]'"
    ),
    "ambiguity_search": (
        "(op: 'SecondOrderOp', bound: 'int' = 6, n: 'int' = 6) -> 'dict'"
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
        "seed: 'int' = 0, extra_polys: 'Sequence[MPoly]' = ()) -> 'dict'"
    ),
    "oracle_sweep_trig": (
        "(params: 'ModelParams', n_points: 'int' = 20, n_polys: 'int' = 5, "
        "seed: 'int' = 0) -> 'dict'"
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


def _records():
    """One instance of each result record, built from realistic fields."""
    from f4solv import flags, models, operators, oracle, spectral
    from f4solv.linalg import RatMatrix
    from f4solv.poly import MPoly

    basis = flags.enumerate_basis((1, 2, 2, 3), 3)
    params = models.ModelParams(1, "1/3", omega=1)
    prepared = oracle.PreparedOracle("rational", params)
    psi = MPoly.monomial("t", (1, 0, 0, 0))
    line = spectral.SpectralLine((1, 0, 0, 0), F(-2), F(3), psi)
    minimal = (1, 2, 2, 3)
    return [
        basis,
        flags.FlagVerdict(False, {"monomial": [0, 0, 0, 1]}),
        flags.TriangularVerdict(True, True),
        flags.ScanResult((minimal,), (minimal,), {(1, 1, 1, 1): {"monomial": [0, 1, 0, 0]}}),
        flags.AmbiguityFinding((F(1, 2),) + (F(0),) * 6, ((1, 2, 3, 4),)),
        params,
        operators.MatrixResult(RatMatrix([[F(1), F(2)], [F(0), F(3)]])),
        oracle.Calibration(F(1), F(-1, 2), 1),
        prepared.poly(psi),
        prepared.point((F(1, 2), F(-4, 3), F(1), F(2, 3))),
        line,
        spectral.SpectrumResult((line,), True, basis, RatMatrix([[F(-2)]])),
        spectral.EigenReport((line,), ()),
        spectral.AffineFit(F(2), F(1, 3), True),
    ]


def _field_names(record) -> tuple:
    return getattr(record, "_fields", None) or type(record).__slots__


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class TestRecords:
    """The result records are immutable values: fixed fields, equality by
    field, and ``len`` of a basis is its dimension."""

    def test_every_record_is_covered(self):
        assert len({type(r).__name__ for r in _records()}) == 14

    def test_assigning_a_field_raises(self):
        for record in _records():
            for name in _field_names(record):
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))

    def test_equal_fields_give_equal_records(self):
        for record in _records():
            values = [getattr(record, name) for name in _field_names(record)]
            twin = type(record)(*values)
            assert twin == record and not twin != record
            if all(map(_hashable, values)):
                assert hash(twin) == hash(record)

    def test_a_basis_has_the_length_of_its_monomials(self):
        from f4solv import enumerate_basis

        basis = enumerate_basis((1, 2, 2, 3), 3)
        assert len(basis) == len(basis.monomials) == 9
        assert basis.index()[basis.monomials[4]] == 4

    def test_model_params_hold_fractions(self):
        from f4solv import ModelParams

        params = ModelParams(1, "1/3")
        assert (params.nu, params.mu, params.omega, params.beta2) == (F(1), F(1, 3), None, None)
        assert all(type(v) is F for v in (params.nu, params.mu))
        assert type(ModelParams(1, 2, beta2="-1/4").beta2) is F
        assert params == ModelParams(F(1), F(1, 3)) != ModelParams(1, "1/3", omega=1)
        with pytest.raises(TypeError):
            ModelParams(None, 1)  # only omega and beta2 may be None

    def test_with_omega_keeps_every_other_field(self):
        from f4solv import ModelParams

        params = ModelParams("5/2", "1/7", beta2="1/4")
        rational = params.with_omega()
        assert (rational.nu, rational.mu, rational.omega, rational.beta2) == (
            F(5, 2), F(1, 7), F(1), F(1, 4))
        assert type(rational.omega) is F
        assert rational.with_omega() is rational

    def test_attach_closed_form_keeps_every_other_field(self):
        from f4solv.spectral import SpectralLine, attach_closed_form, closed_form_energy

        records = _records()
        params, line = records[5], records[10]
        unlabeled = SpectralLine(None, line.eigenvalue, line.closed_form_energy, line.eigenfunction)
        labeled, bare = attach_closed_form([line, unlabeled], "rational", params)
        energy = closed_form_energy("rational", line.quantum_numbers, params)
        assert energy != line.closed_form_energy
        assert labeled == SpectralLine(line.quantum_numbers, line.eigenvalue, energy,
                                       line.eigenfunction)
        assert bare == SpectralLine(None, line.eigenvalue, None, line.eigenfunction)
        assert labeled.eigenfunction is line.eigenfunction


class TestFrozenValues:
    """Polynomials, substitutions and operators share the records' base:
    no field can be assigned, and maps and polynomials are values."""

    def test_assigning_a_field_raises(self):
        from f4solv.poly import MPoly, VarMap

        p = MPoly.variable("t", 0)
        ident = VarMap("t", "t", [MPoly.variable("t", s) for s in range(4)])
        for value in (p, ident, SecondOrderOp("t", {}, {1: p})):
            for name in type(value).__slots__:
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(value, name, getattr(value, name))

    def test_equal_maps_are_equal_and_hash_equal(self):
        from f4solv.poly import MPoly, VarMap

        images = [MPoly.variable("rho", s) + s for s in range(4)]
        fwd, twin = VarMap("t", "rho", images), VarMap("t", "rho", list(images))
        assert fwd == twin and not fwd != twin and hash(fwd) == hash(twin)
        assert fwd != VarMap("tau", "rho", images)

    def test_insertion_order_does_not_change_a_polynomial_hash(self):
        from f4solv.poly import MPoly

        terms = {(1, 0, 0, 0): F(1, 2), (0, 2, 0, 1): F(-3), (0, 0, 0, 0): F(7)}
        p, q = MPoly("t", terms), MPoly("t", dict(reversed(terms.items())))
        assert list(p.terms) != list(q.terms)
        assert p == q and hash(p) == hash(q)

    def test_init_takes_one_value_per_field(self):
        from f4solv.poly import MPoly

        for values in (("t",), ("t", {}, None)):
            with pytest.raises(ValueError):
                MPoly.__new__(MPoly)._init(*values)
