"""Second-variation routes that only the tests read.

``flow_hessian_form`` evaluates the flow route of the Hessian for one pair
of fields at its own step; ``shape.hessian_report`` reaches the same route
through ``shape._flow_hessian`` on the stencils it already holds.
"""

import numpy as np

from quadshape.geometry import MetricParams, NormalField
from quadshape.shape import _flow_hessian, fd_second_derivative


def _as_field(direction):
    if isinstance(direction, NormalField):
        return direction
    return NormalField(np.asarray(direction, dtype=float))


def flow_hessian_form(state, a, b, A=1.0, t_step=1e-3):
    """Hessian form as derivative of the gradient along a flow.

    Central-differences t -> hadamard_derivative on the +-t curves of
    ``fd_second_derivative`` along a (the weight field b rides along
    node-to-node) and subtracts the gradient against the covariant
    derivative nabla_a b, so the result is the metric Hessian form
    evaluated through the connection.
    """
    af = _as_field(a)
    bf = _as_field(b)
    params = MetricParams(A=A, k=state.k)
    return _flow_hessian(state, fd_second_derivative(state, af, t_step),
                         af, bf, params)
