"""Property tests over randomly drawn inputs (hypothesis)."""

import cmath
import math

from hypothesis import assume, given, settings, strategies as st

from dp3.monodromy import (
    ProblemParams,
    UnderdeterminedError,
    backlund_data,
    complete_from_G,
    data_from_json,
    data_to_json,
    residual_norm,
)
from dp3.specfun import gamma, pow_principal

finite = st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


def cplx(re_min=-2.0, re_max=2.0):
    return st.builds(
        complex,
        st.floats(min_value=re_min, max_value=re_max, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )


@given(z=cplx(0.6, 20.0))
@settings(max_examples=60, deadline=None)
def test_gamma_recurrence_property(z):
    g1 = gamma(z + 1)
    assert abs(g1 - z * gamma(z)) <= 1e-12 * abs(g1)


@given(base=cplx(0.2, 3.0), e1=cplx(), e2=cplx())
@settings(max_examples=60, deadline=None)
def test_pow_principal_addition_law(base, e1, e2):
    # exp-additivity holds exactly off the branch cut
    lhs = pow_principal(base, e1) * pow_principal(base, e2)
    rhs = pow_principal(base, e1 + e2)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@given(
    a=st.builds(
        complex,
        st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
        st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
    ),
    g11=cplx(0.3, 1.5),
    g12=cplx(),
    g21=cplx(),
)
@settings(max_examples=40, deadline=None)
def test_completion_json_backlund_properties(a, g11, g12, g21):
    params = ProblemParams(a, 1.0, 1)
    try:
        data = complete_from_G(params, g11, g12, g21)
    except UnderdeterminedError:
        # g12*g21 ~ -1 puts g22 ~ 0, where G alone does not fix s00
        assume(False)
    # on-manifold by construction, including the never-used relation
    assert residual_norm(data) < 1e-9
    # JSON round trip is exact up to float repr
    assert data_from_json(data_to_json(data)).equivalent(data, tol=1e-12)
    # Backlund closure and invertibility
    img = backlund_data(data, 1)
    assert residual_norm(img) < 1e-8
    assert backlund_data(img, -1).equivalent(data)
