"""Plane-stress elasticity on the hexagonal mesh with SIMP-interpolated moduli.

``assemble_stiffness(mesh, design, materials)`` scales the one unit-modulus
element template by each element's interpolated modulus and sums the
entries into the mesh's fixed stiffness pattern with one ``np.bincount``.
``solve_displacements(K, F, mesh, fixed_dofs)`` reduces K u = F to the free
DOFs through the stiffness pattern's ``Reduction`` for the supports (built
once per set of supports), solves it with the reduction's float32 factor of
K_ff refined in float64 and checks the residual on the free DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._element_data import element_quadrature, mesh_integrals, stiffness_kernel
from .darcy import PressureState
from .errors import InvalidArgumentError, SingularSystemError, SolverError
from .fields import DesignField, interpolate_modulus

_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ElasticState:
    """Stiffness, displacements, loads and compliance solved for ``design``,
    loaded by the field of ``pressure`` (F = -T p) solved for the same design.
    """

    K: sp.csr_matrix
    u: np.ndarray
    F: np.ndarray
    fixed_dofs: np.ndarray
    compliance: float
    design: DesignField
    pressure: PressureState


def element_stiffness(element_vertices, e_modulus, nu, thickness):
    """12x12 plane-stress stiffness of one hexagon, t * integral B^T C B.

    Uses the centroid-fan quadrature; the matrix is symmetric with exactly the
    three rigid-body modes in its null space (Wachspress linear completeness
    makes rotation strain-free pointwise).
    """
    if e_modulus <= 0:
        raise InvalidArgumentError("Young's modulus must be positive")
    if not 0.0 <= nu < 0.5:
        raise InvalidArgumentError(f"Poisson ratio out of range: {nu}")
    weights, _, grads = element_quadrature(element_vertices)
    return e_modulus * stiffness_kernel(weights, grads, nu, thickness)


def assemble_stiffness(mesh, design, materials):
    """Global stiffness with per-element modulus from the SIMP interpolation."""
    data = mesh_integrals(mesh)
    e_elem = interpolate_modulus(design.filtered, materials)
    return data.stiffness_pattern.assemble(
        e_elem[:, None, None] * data.stiffness(materials.nu,
                                               materials.thickness))


def solve_displacements(K, F, mesh, fixed_dofs, fixed_values=None):
    """Solve K u = F with Dirichlet DOFs eliminated; return (u, compliance).

    ``K`` comes from ``assemble_stiffness`` on ``mesh``.  ``fixed_values[i]``
    is prescribed on ``fixed_dofs[i]``, in the order the DOFs are passed, and
    defaults to homogeneous supports; a DOF listed twice is rejected, and so
    is a non-finite load or prescribed value.  The reduced system
    K_ff u_f = F_f - K_fd v is solved by the refined sparse LU of the
    stiffness pattern's ``Reduction``; its residual must satisfy
    ||K_ff u_f - (F_f - K_fd v)|| / ||F_f - K_fd v|| < 1e-9.
    """
    if np.size(fixed_dofs) < 3:
        raise SingularSystemError(
            "fewer than three constrained DOFs cannot remove the rigid-body "
            "modes (two translations and one rotation)"
        )
    F = np.asarray(F, dtype=float)
    if not np.all(np.isfinite(F)) or (
            fixed_values is not None
            and not np.all(np.isfinite(np.asarray(fixed_values, dtype=float)))):
        raise InvalidArgumentError("load and prescribed displacements must "
                                   "be finite")
    reduction = mesh_integrals(mesh).stiffness_pattern.reduction(fixed_dofs)
    try:
        lu = reduction.factor(K, _RESIDUAL_TOL)
        rhs = reduction.reduce(K, fixed_values, F)
        u_free = lu(rhs)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"stiffness matrix is singular; "
            f"{_describe_rigid_mode(reduction.blocks(K)[0], reduction.rows)}"
        ) from exc
    if not np.all(np.isfinite(u_free)):
        raise SingularSystemError(
            f"stiffness solve produced non-finite values; "
            f"{_describe_rigid_mode(lu.matrix, reduction.rows)}"
        )
    u = reduction.expand(u_free, fixed_values)

    # taken in the order of ``free``, so that with homogeneous supports it
    # is ||F_free|| bit for bit
    rnorm = np.linalg.norm(reduction.expand(rhs)[reduction.free]) or 1.0
    residual = np.linalg.norm(lu.matrix @ u_free - rhs) / rnorm
    if residual > _RESIDUAL_TOL:
        raise SolverError(
            f"displacement solve residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOL:.1e}"
        )
    compliance = float(u @ F)
    return u, compliance


def _describe_rigid_mode(k_ff, dofs):
    """Best-effort identification of the unconstrained rigid mode; ``dofs``
    are the interleaved DOF numbers of the rows of ``k_ff``."""
    try:
        n = k_ff.shape[0]
        if n > 20000:
            return "system too large to identify the rigid mode"
        # small negative shift keeps the shift-inverted operator nonsingular
        shift = -1e-9 * max(float(np.abs(k_ff.diagonal()).max()), 1.0)
        _, vecs = spla.eigsh(k_ff.tocsc(), k=1, sigma=shift, which="LM")
        mode = vecs[:, 0]
        ux = np.linalg.norm(mode[dofs % 2 == 0])
        uy = np.linalg.norm(mode[dofs % 2 == 1])
        if ux > 3 * uy:
            return "near-null mode resembles an x-translation"
        if uy > 3 * ux:
            return "near-null mode resembles a y-translation"
        return "near-null mode mixes both directions (rotation-like)"
    except Exception:
        return "rigid mode could not be identified"
