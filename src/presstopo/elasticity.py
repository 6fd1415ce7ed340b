"""Plane-stress elasticity on the hexagonal mesh with SIMP-interpolated moduli.

``assemble_stiffness(mesh, design, materials)`` scales the one unit-modulus
element template by each element's interpolated modulus and sums the
entries into the mesh's fixed stiffness pattern with one ``np.bincount``.
``solve_displacements(K, F, mesh, fixed_dofs)`` solves K u = F by
``Pattern.solve`` of the stiffness pattern: a float32 factor of K, with the
supports as unit pivots, refined in float64 on the free DOFs and gated on
its residual, or refined from the factor of a nearby K (``near``).  It
returns that refined solve with u and the compliance, and ``ElasticState``
holds it as ``factor``.  Supports that leave a rigid-body mode free, and
non-finite loads or prescribed values, are rejected before anything is
factored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._element_data import (check_fixed, element_quadrature, mesh_integrals,
                            stiffness_kernel)
from .darcy import PressureState
from .errors import InvalidArgumentError, SingularSystemError, SolverError
from .fields import DesignField, interpolate_modulus

_RESIDUAL_TOL = 1e-9
_RIGID_MODES = ("x-translation", "y-translation", "rotation")


@dataclass(frozen=True)
class ElasticState:
    """Stiffness, displacements, loads and compliance solved for ``design``,
    loaded by the field of ``pressure`` (F = -T p) solved for the same design.
    ``factor`` is the ``MixedCholesky`` that solved K u = F, as
    ``PressureState.factor`` is A's; ``driver.run_optimization`` releases it
    once the analysis returns, keeping its solve statistics.
    """

    K: sp.csr_matrix
    u: np.ndarray
    F: np.ndarray
    fixed_dofs: np.ndarray
    compliance: float
    design: DesignField
    pressure: PressureState
    factor: object = field(repr=False)


def element_stiffness(element_vertices, e_modulus, nu, thickness):
    """12x12 plane-stress stiffness of one hexagon, t * integral B^T C B.

    Uses the centroid-fan quadrature; the matrix is symmetric with exactly the
    three rigid-body modes in its null space (Wachspress linear completeness
    makes rotation strain-free pointwise).
    """
    if not 0 < e_modulus < np.inf:
        raise InvalidArgumentError("Young's modulus must be positive and finite")
    if not 0.0 <= nu < 0.5:
        raise InvalidArgumentError(f"Poisson ratio out of range: {nu}")
    weights, _, grads = element_quadrature(element_vertices)
    return e_modulus * stiffness_kernel(weights, grads, nu, thickness)


def assemble_stiffness(mesh, design, materials):
    """Global stiffness with per-element modulus from the SIMP interpolation,
    at the thickness of ``design``, as the loads of ``assemble_flow``."""
    data = mesh_integrals(mesh)
    e_elem = interpolate_modulus(design.filtered, materials)
    return data.stiffness_pattern.assemble(
        e_elem[:, None, None] * data.stiffness(materials.nu, design.thickness))


def solve_displacements(K, F, mesh, fixed_dofs, fixed_values=None,
                        near=None):
    """Solve K u = F with Dirichlet DOFs eliminated; return (u, compliance,
    factor), ``factor`` the ``MixedCholesky`` of K that solved it.

    ``K`` comes from ``assemble_stiffness`` on ``mesh``.  ``fixed_values[i]``
    is prescribed on ``fixed_dofs[i]``, in the order the DOFs are passed, and
    defaults to homogeneous supports; a DOF that is not an integer or is
    listed twice is rejected, and so is a non-finite load or prescribed
    value.  Supports that leave a rigid-body mode free raise
    ``SingularSystemError`` naming the mode.  The reduced system
    K_ff u_f = F_f - K_fd v is solved by ``Pattern.solve``; its
    ``MixedCholesky.residual``,
    ||K_ff u_f - (F_f - K_fd v)|| / ||F_f - K_fd v||, must be at most 1e-9.
    ``near``, the factor of a K solved on ``mesh`` with the same supports,
    is refined from instead of factoring ``K``, under the same gate.
    """
    F = np.asarray(F, dtype=float)
    pattern = mesh_integrals(mesh).stiffness_pattern
    fixed = check_fixed(fixed_dofs, pattern.shape[0])
    free_modes = _free_rigid_modes(mesh, fixed)
    if free_modes:
        raise SingularSystemError(
            f"supports leave a rigid-body mode free: {', '.join(free_modes)}")
    try:
        u, factor = pattern.solve(K, _RESIDUAL_TOL, fixed, F, fixed_values,
                                  near)
    except RuntimeError as exc:
        raise SingularSystemError("stiffness matrix is singular") from exc
    if not np.all(np.isfinite(u)):
        raise SingularSystemError("stiffness solve produced non-finite values")
    if factor.residual > _RESIDUAL_TOL:
        raise SolverError(
            f"displacement solve residual {factor.residual:.3e} exceeds "
            f"{_RESIDUAL_TOL:.1e}"
        )
    compliance = float(u @ F)
    return u, compliance, factor


def _free_rigid_modes(mesh, dofs):
    """Names of the rigid-body modes that fixing ``dofs`` leaves free.

    The rigid motion a (1, 0) + b (0, 1) + theta (-(y - y0), x - x0) / L,
    about the centre (x0, y0) of the nodes with L the longer side, is zero
    on fixed x-DOF 2i when [1, 0, -(y_i - y0) / L] . (a, b, theta) = 0 and
    on fixed y-DOF 2j when [0, 1, (x_j - x0) / L] . (a, b, theta) = 0.  K
    has exactly these three null modes (every modulus is positive), so K_ff
    is singular exactly when these rows have rank below 3.  For a null
    space of dimension k the k modes with the largest share of it are named.
    """
    xy = (mesh.nodes - mesh.nodes.mean(axis=0)) / max(mesh.Lx, mesh.Ly)
    node, d = np.divmod(dofs, 2)
    # zero rows pad fewer than three DOFs, so the SVD returns all of vt
    rows = np.zeros((max(dofs.size, 3), 3))
    rows[np.arange(dofs.size), d] = 1.0
    rows[:dofs.size, 2] = np.where(d == 0, -xy[node, 1], xy[node, 0])
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * rows.shape[0] * np.finfo(float).eps))
    share = np.linalg.norm(vt[rank:], axis=0)
    return [_RIGID_MODES[i] for i in sorted(np.argsort(-share)[:3 - rank])]
