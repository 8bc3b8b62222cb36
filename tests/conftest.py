import warnings
from fractions import Fraction as F

import pytest

from f4solv.models import ModelParams, build_rational_operator, build_rho_map, build_trig_operator

#: parameter sets inside both physical windows
RATIONAL_SETS = [
    ModelParams(nu=F(1, 3), mu=F(1, 5), omega=F(1)),
    ModelParams(nu=F(2), mu=F(3), omega=F(2)),
    ModelParams(nu=F(5, 2), mu=F(1, 7), omega=F(1, 2)),
]
TRIG_SETS = [
    ModelParams(nu=F(1, 3), mu=F(1, 8), beta2=F(1, 4)),
    ModelParams(nu=F(2), mu=F(3), beta2=F(1)),
    ModelParams(nu=F(5, 2), mu=F(1), beta2=F(4)),
]

MINIMAL = (1, 2, 2, 3)


@pytest.fixture(scope="session")
def rational_params():
    return RATIONAL_SETS[0]


@pytest.fixture(scope="session")
def trig_params():
    return TRIG_SETS[0]


@pytest.fixture(scope="session")
def rational_op(rational_params):
    return build_rational_operator(rational_params)


@pytest.fixture(scope="session")
def trig_op(trig_params):
    return build_trig_operator(trig_params)


@pytest.fixture(scope="session")
def rho_op(trig_params, trig_op):
    fwd, inv = build_rho_map(trig_params.beta2)
    return trig_op.change_variables(fwd, inv)


@pytest.fixture(autouse=True)
def fail_on_window_warnings():
    # fixtures above use in-window parameters; a warning here is a bug
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield
