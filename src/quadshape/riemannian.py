"""Connection and gradient structure of the curvature-weighted metric.

Tangent vectors at a curve are normal fields h = alpha * nu and the metric is
G(h, m) = integral (1 + A kappa^2) alpha beta ds.  The covariant derivative
acts pointwise,

    nabla_V W = (dbeta/dnu) alpha + Gamma(kappa) alpha beta,
    Gamma = (3 A kappa^3 + kappa) / (1 + A kappa^2),

with fields transported node-to-node along normal flows and dbeta/dnu taken
from the field's declared normal derivative (zero by default).  The
connection is torsion-free by construction since Gamma is symmetric in the
two fields.

Two closed-form candidates exist for the normal variation of curvature,
differing by orientation convention: +kappa^2 (curvature measured against
the inward normal) and -kappa^2 (what an outward unit-speed flow actually
produces: a circle of radius R flowed outward has d kappa/dt = -1/R^2).
Both are exposed, together with a finite-difference arbiter.

The compatibility check uses the pointwise Levi-Civita coefficient of the
metric under node-wise transport,

    Gamma_lc = (kappa - A kappa^3) / (2 (1 + A kappa^2)),

obtained from the Koszul formula when tangential smoothing terms are
dropped; with it the product rule d/dt G(m, l) = G(nabla_h m, l) +
G(m, nabla_h l) holds exactly on circle families, so the reported residual
isolates the finite-difference error and, for general fields, the omitted
tangential terms.
"""

from __future__ import annotations

import numpy as np

from .geometry import NormalField, flow_curve, metric_inner, metric_weight


def riemannian_gradient(curve, params, psi):
    """Metric representation of the boundary gradient density.

    The first variation of the shape functional is carried by the boundary
    density psi = k^2 - u_nu^2; its gradient with respect to the
    curvature-weighted metric is the normal field psi / (1 + A kappa^2).
    """
    psi = np.asarray(psi, dtype=float)
    return NormalField(psi / metric_weight(curve, params))


def connection_coefficient(curve, params):
    """Pointwise coefficient Gamma = (3 A kappa^3 + kappa) / (1 + A kappa^2)."""
    kap = curve.kappa
    return (3.0 * params.A * kap**3 + kap) / (1.0 + params.A * kap**2)


def levi_civita_coefficient(curve, params):
    """Pointwise Levi-Civita coefficient of the metric under node-wise
    transport: (kappa - A kappa^3) / (2 (1 + A kappa^2)).

    Differs from ``connection_coefficient`` in the sign of the cubic term
    (it uses the outward-flow curvature variation -kappa^2) and in the
    symmetric 1/2 split of the Koszul formula.
    """
    kap = curve.kappa
    return (kap - params.A * kap**3) / (2.0 * (1.0 + params.A * kap**2))


def covariant_derivative(curve, params, v, w):
    """nabla_V W for normal fields v = alpha nu, w = beta nu."""
    gamma = connection_coefficient(curve, params)
    values = w.normal_derivative * v.values + gamma * v.values * w.values
    return NormalField(values)


def torsion(curve, params, v, w):
    """Nodewise torsion nabla_V W - nabla_W V - [v, w].

    The bracket of two normal fields under node-wise transport is
    (dbeta/dnu) alpha - (dalpha/dnu) beta; the symmetric Gamma term cancels,
    so the result is zero to roundoff.
    """
    dvw = covariant_derivative(curve, params, v, w).values
    dwv = covariant_derivative(curve, params, w, v).values
    bracket = w.normal_derivative * v.values - v.normal_derivative * w.values
    return dvw - dwv - bracket


def _transported(field, carrier, t):
    """Field values after moving distance t along carrier * nu, using the
    declared normal derivative as the extension rule."""
    return field.values + t * carrier.values * field.normal_derivative


def check_metric_compatibility(curve, params, h, m, l, t_step=1e-4):
    """Residual of the product rule for the metric along a normal flow.

    Compares the central finite difference of t -> G(m_t, l_t) on the curve
    flowed by h (fields transported node-to-node, plus any declared normal
    derivative) against G(nabla_h m, l) + G(m, nabla_h l) with the pointwise
    Levi-Civita coefficient.  On circle families with constant fields both
    sides are exact and the residual is the O(t_step^2) difference error.
    """
    values = []
    for t in (t_step, -t_step):
        ct = flow_curve(curve, h, t, validate=False)
        mt = _transported(m, h, t)
        lt = _transported(l, h, t)
        values.append(metric_inner(ct, params, mt, lt))
    lhs = (values[0] - values[1]) / (2.0 * t_step)

    gamma = levi_civita_coefficient(curve, params)
    dm = NormalField(m.normal_derivative * h.values + gamma * h.values * m.values)
    dl = NormalField(l.normal_derivative * h.values + gamma * h.values * l.values)
    rhs = metric_inner(curve, params, dm, l) + metric_inner(curve, params, m, dl)
    return abs(lhs - rhs)


def curvature_normal_derivative(curve, convention="outward"):
    """Closed-form candidates for d kappa / d nu under a unit normal flow.

    convention "outward": -kappa^2, matching what flowing the curve along
    +nu actually does to the curvature (finite-difference verified).
    convention "inward": +kappa^2, the same quantity when curvature is
    measured against the inward normal.
    """
    if convention == "outward":
        return -curve.kappa**2
    if convention == "inward":
        return curve.kappa**2
    raise ValueError("convention must be 'outward' or 'inward'")


def curvature_normal_derivative_fd(curve):
    """Finite-difference arbiter: central difference of the curvature under
    the unit outward flow c + t nu, at t = +-1e-5."""
    t_step = 1e-5
    ones = NormalField.constant(1.0, curve.n)
    kp = flow_curve(curve, ones, t_step, validate=False).kappa
    km = flow_curve(curve, ones, -t_step, validate=False).kappa
    return (kp - km) / (2.0 * t_step)
