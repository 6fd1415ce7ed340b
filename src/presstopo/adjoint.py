"""Adjoint sensitivities of compliance and volume constraints.

Compliance c = u^T K u is differentiated through the coupled system
K u = -T p, A p = 0.  The structural problem is self-adjoint (lam1 = -2u);
the flow adjoint solves A lam2 = 2 T^T u on the free pressure nodes with
the state solve's factor, gated as that solve is.  Per filtered variable,

    dc/dr_i1 = -u_e^T dk_e/dr_i1 u_e + lam2_e^T dA_e/dr_i1 p_e
    dc/dr_ij = -u_e^T dk_e/dr_ij u_e            (j >= 2; A depends on r1 only)

and raw-variable sensitivities follow by the filter transpose.  The second
term is the load sensitivity: dropping it measurably changes the gradient on
pressure-loaded problems.

``compliance_sensitivity(mesh, materials, flow_params, state, filt)`` takes
the ``ElasticState`` of one analysis, which carries its design and its
pressure state, so the gradient is always taken at the design that was
solved.
"""

from __future__ import annotations

import numpy as np

from ._element_data import mesh_integrals
from .darcy import drainage_coefficient, flow_coefficient
from .errors import InvalidArgumentError, SolverError
from .fields import modulus_derivatives


def compliance_sensitivity(mesh, materials, flow_params, state, filt,
                           include_load_term=True):
    """Gradient of compliance w.r.t. all raw design variables, (n_elements, m).

    ``state`` is the ``ElasticState`` returned by ``driver.analyze``; the
    design with its thickness, the displacements, the pressure field and the
    pressure factorization are all read from it.  ``include_load_term=False``
    drops the flow-adjoint contribution, for diagnostics only.  A state
    solved on another mesh raises ``InvalidArgumentError``; a flow adjoint
    residual past the pressure gate, or NaN, raises ``SolverError``.
    """
    design, pressure = state.design, state.pressure
    data = mesh_integrals(mesh)
    # the matrices assembled on a mesh share its patterns' indptr
    if (state.K.indptr is not data.stiffness_pattern.indptr
            or pressure.A.indptr is not data.flow_pattern.indptr):
        raise InvalidArgumentError("state was not solved on this mesh")
    u_e = state.u[data.udofs]
    p_e = pressure.p[data.conn]

    # -u^T dK u: element strain energies against unit-modulus stiffness
    k0 = data.stiffness(materials.nu, design.thickness)
    uku = np.einsum("ei,ij,ej->e", u_e, k0, u_e)
    de = modulus_derivatives(design.filtered, materials)
    d_filtered = -de * uku[:, None]

    if include_load_term:
        # A is symmetric, so the adjoint reuses the state solve's factor
        factor = pressure.factor
        lam2 = factor(2.0 * (pressure.T.T @ state.u))
        if not factor.residual <= factor.tol:
            raise SolverError(f"flow adjoint solve residual "
                              f"{factor.residual:.3e} exceeds {factor.tol:.1e}")
        lam_e = lam2[data.conn]
        rho1 = design.filtered[:, 0]
        _, dk = flow_coefficient(rho1, flow_params)
        _, dd = drainage_coefficient(rho1, flow_params)
        lap = np.einsum("ei,ij,ej->e", lam_e, data.diffusion, p_e)
        lmp = np.einsum("ei,ij,ej->e", lam_e, data.mass, p_e)
        d_filtered[:, 0] += dk * lap + dd * lmp

    return filt.chain(d_filtered)


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
