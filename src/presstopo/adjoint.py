"""Adjoint sensitivities of compliance and volume constraints.

Compliance c = u^T K u is differentiated through the coupled system
K u = -T p, A p = 0.  The structural problem is self-adjoint (lam1 = -2u);
the flow adjoint solves A lam2 = 2 T^T u on the free pressure nodes.  Per
filtered variable,

    dc/dr_i1 = -u_e^T dk_e/dr_i1 u_e + lam2_e^T dA_e/dr_i1 p_e
    dc/dr_ij = -u_e^T dk_e/dr_ij u_e            (j >= 2; A depends on r1 only)

and raw-variable sensitivities follow by the filter transpose.  The second
term is the load sensitivity: dropping it measurably changes the gradient on
pressure-loaded problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._element_data import mesh_integrals
from .darcy import drainage_coefficient, flow_coefficient
from .errors import ConsistencyError
from .fields import modulus_derivatives


@dataclass(frozen=True)
class SensitivityBundle:
    """Gradients of the objective and constraints w.r.t. raw variables."""

    d_compliance: np.ndarray  # (n_elements, m)
    d_constraints: list       # m arrays of shape (n_elements, m)


def compliance_sensitivity(mesh, design, materials, flow_params,
                           pressure_state, elastic_state, filt,
                           include_load_term=True):
    """Gradient of compliance w.r.t. all raw design variables, (n_elements, m).

    Requires the pressure and elastic states solved for exactly this design
    (checked via the design fingerprint).  ``include_load_term=False`` drops
    the flow-adjoint contribution, for diagnostics only.
    """
    fp = design.fingerprint()
    if pressure_state.design_fingerprint != fp:
        raise ConsistencyError("pressure state is stale for this design")
    if elastic_state.design_fingerprint and elastic_state.design_fingerprint != fp:
        raise ConsistencyError("elastic state is stale for this design")
    if pressure_state.p is None:
        raise ConsistencyError("pressure state has no solved field")

    data = mesh_integrals(mesh)
    u_e = elastic_state.u[data.udofs]
    p_e = pressure_state.p[data.conn]

    # -u^T dK u: element strain energies against unit-modulus stiffness
    k0 = data.stiffness(materials.nu, materials.thickness)
    uku = np.einsum("ei,ij,ej->e", u_e, k0, u_e)
    de = modulus_derivatives(design.filtered, materials)
    d_filtered = -de * uku[:, None]

    if include_load_term:
        lam2 = pressure_state.adjoint_solve(2.0 * (pressure_state.T.T @ elastic_state.u))
        lam_e = lam2[data.conn]
        rho1 = design.filtered[:, 0]
        _, dk = flow_coefficient(rho1, flow_params)
        _, dd = drainage_coefficient(rho1, flow_params)
        lap = np.einsum("ei,ij,ej->e", lam_e, data.diffusion, p_e)
        lmp = np.einsum("ei,ij,ej->e", lam_e, data.mass, p_e)
        d_filtered[:, 0] += dk * lap + dd * lmp

    d_raw = np.column_stack(
        [filt.chain(d_filtered[:, j]) for j in range(d_filtered.shape[1])]
    )
    return d_raw


def sensitivity_bundle(mesh, design, materials, flow_params, pressure_state,
                       elastic_state, filt) -> SensitivityBundle:
    """Objective and constraint gradients for one converged design."""
    return SensitivityBundle(
        d_compliance=compliance_sensitivity(
            mesh, design, materials, flow_params, pressure_state,
            elastic_state, filt),
        d_constraints=constraint_sensitivities(design, filt),
    )


def constraint_sensitivities(design, filt):
    """Gradients of the volume measures w.r.t. raw variables.

    Constraint j depends only on column j: d g_j / d r_ij = v_i / sum(v),
    chained through the filter transpose; all other columns are zero.  The
    result is design-independent.
    """
    nel, m = design.raw.shape
    v = design.element_volumes / design.element_volumes.sum()
    chained = filt.chain(v)
    out = []
    for j in range(m):
        grad = np.zeros((nel, m))
        grad[:, j] = chained
        out.append(grad)
    return out
