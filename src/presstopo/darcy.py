"""Design-dependent pressure field via the Darcy law with a drainage term.

The flux follows q = -K(r1) grad p, where the elemental flow coefficient K
steps from the void value K_v down to the solid value K_s = eps * K_v through
a smooth Heaviside of the filtered topology density r1.  A drainage sink
-D(r1) (p - p_ext) with p_ext = 0 makes the pressure decay across solid
members, so the load localizes at the evolving structural boundary.  One
kernel gives the step and its slope (0 where cosh^2 overflows, so any finite
beta is usable).  Under the penetration rule D_s scales with K_s = eps K_v,
so A scales with K_v as a whole: config files leave K_v at 1.

Assembling both terms over the hexagon quadrature gives the symmetric global
flow matrix A and the design-independent transformation T
(``assemble_flow(mesh, design, params) -> (A, T)``).  A is one
``np.bincount`` of the scaled element templates into the mesh's fixed flow
pattern; T is a ``LinearOperator`` that applies T's element template to
each element (``MeshIntegrals.load_transform``).
``solve_pressure(A, T, mesh, pressure_bc)`` maps the named edges to their
nodes and solves A p = 0 by ``Pattern.solve`` of the flow pattern: a float32
factor of A, with the Dirichlet nodes as unit pivots, refined in float64 on
the free nodes.  It returns a frozen ``PressureState`` holding A, T, p and
that refined solve, ``factor``, which the flow adjoint calls;
``pressure_loads(T, p)`` gives the consistent nodal loads F = -T p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._element_data import mesh_integrals
from .errors import IllPosedError, InvalidArgumentError, SolverError

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class FlowParams:
    """Darcy flow and drainage parameters.

    ``beta_k`` or ``beta_d`` equal to zero disables the corresponding step
    (coefficient frozen at its void value / drainage switched off), which
    makes the flow matrix design-independent for diagnostics.
    """

    k_void: float = 1.0
    epsilon: float = 1e-7
    eta_k: float = 0.2
    beta_k: float = 10.0
    eta_d: float = 0.2
    beta_d: float = 10.0
    d_solid: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidArgumentError(f"flow contrast must be in (0,1): {self.epsilon}")
        if not 0 < self.k_void < np.inf:
            raise InvalidArgumentError(
                "void flow coefficient must be positive and finite")
        if not (0 <= self.beta_k < np.inf and 0 <= self.beta_d < np.inf):
            raise InvalidArgumentError("step slopes must be non-negative and finite")
        for eta in (self.eta_k, self.eta_d):
            if not 0.0 < eta < 1.0:
                raise InvalidArgumentError(f"step position must be in (0,1): {eta}")
        if not 0 <= self.d_solid < np.inf:
            raise InvalidArgumentError(
                "solid drainage coefficient must be >= 0 and finite")

    @property
    def k_solid(self):
        return self.epsilon * self.k_void


def _step(x, beta, eta):
    """Smooth step H = [tanh(b e) + tanh(b (x - e))] / [tanh(b e) +
    tanh(b (1 - e))] and its slope dH/dx.  H maps 0 -> 0 and 1 -> 1 exactly
    for beta > 0; beta == 0 gives zeros (step disabled).  Where
    cosh(b (x - e))^2 overflows, the slope takes its limit, 0."""
    x = np.asarray(x, dtype=float)
    if beta == 0.0:
        return np.zeros_like(x), np.zeros_like(x)
    denom = np.tanh(beta * eta) + np.tanh(beta * (1.0 - eta))
    with np.errstate(over="ignore"):
        slope = beta / (np.cosh(beta * (x - eta)) ** 2 * denom)
    return (np.tanh(beta * eta) + np.tanh(beta * (x - eta))) / denom, slope


def smooth_heaviside(x, beta, eta):
    """The step H of the flow law (``_step``); a float for a scalar ``x``."""
    out = _step(x, beta, eta)[0]
    return float(out) if out.ndim == 0 else out


def flow_coefficient(rho1, params: FlowParams):
    """Elemental flow coefficient K(r1) and its derivative dK/dr1.

    K = K_v (1 - (1 - eps) H(r1)); depends on the topology variable only,
    irrespective of how many candidate materials are interpolated.
    """
    h, dh = _step(rho1, params.beta_k, params.eta_k)
    k = params.k_void * (1.0 - (1.0 - params.epsilon) * h)
    dk = -params.k_void * (1.0 - params.epsilon) * dh
    return k, dk


def drainage_coefficient(rho1, params: FlowParams):
    """Elemental drainage coefficient D(r1) = D_s H(r1) and its derivative."""
    h, dh = _step(rho1, params.beta_d, params.eta_d)
    return params.d_solid * h, params.d_solid * dh


def penetration_drainage(params: FlowParams, element_height,
                         remainder=0.1, depth_elements=2.0):
    """Solid drainage coefficient from a penetration-depth rule.

    Chooses D_s so that, in a uniformly solid slab, the pressure decays to
    ``remainder`` of its boundary value within ``depth_elements`` element
    heights: D_s = (ln r / ds)^2 K_s.
    """
    if not 0.0 < remainder < 1.0:
        raise InvalidArgumentError("remainder must be in (0,1)")
    ds = depth_elements * element_height
    if not 0 < ds < np.inf:
        raise InvalidArgumentError("penetration depth must be positive and finite")
    return (np.log(remainder) / ds) ** 2 * params.k_solid


@dataclass(frozen=True)
class PressureState:
    """Flow matrix A, transformation T and the field p from ``solve_pressure``;
    ``factor(rhs)`` solves A x = rhs on the free nodes, zero on the others
    (``_element_data.MixedCholesky``); the flow adjoint calls it.
    """

    A: sp.csr_matrix
    T: spla.LinearOperator
    p: np.ndarray
    factor: object = field(repr=False)


def assemble_flow(mesh, design, params: FlowParams):
    """Assemble the global flow matrix A and the transformation T.

    A_e = K(r1) * integral grad N^T grad N + D(r1) * integral N^T N over the
    hexagon quadrature; T_e = t * integral N_u^T grad N_p, independent of the
    design, so that F = -T p yields consistent nodal loads.  Returns (A, T),
    T a ``LinearOperator`` that applies T_e element by element.
    """
    data = mesh_integrals(mesh)
    rho1 = design.filtered[:, 0]
    k, _ = flow_coefficient(rho1, params)
    d, _ = drainage_coefficient(rho1, params)
    a = data.flow_pattern.assemble(
        k[:, None, None] * data.diffusion + d[:, None, None] * data.mass)
    return a, data.load_transform(design.thickness)


def solve_pressure(A, T, mesh, pressure_bc) -> PressureState:
    """Impose Dirichlet pressures on named boundary edges and solve A p = 0.

    ``pressure_bc`` maps edge names ('top', 'bottom', 'left', 'right') to
    pressure values in Pa; ``A`` comes from ``assemble_flow`` on ``mesh``.
    Returns the solved ``PressureState``, whose ``factor`` the adjoint
    reuses; a non-finite pressure is rejected before anything is factored.
    """
    node_sets = []
    for edge in pressure_bc:
        if edge not in mesh.boundary_node_sets:
            raise InvalidArgumentError(f"unknown boundary edge {edge!r}")
        node_sets.append(mesh.boundary_node_sets[edge])
    if not node_sets:
        raise IllPosedError("no Dirichlet pressure nodes; pressure field is "
                            "determined only up to a constant")
    # the four boundary node sets of a honeycomb are pairwise disjoint
    fixed = np.concatenate(node_sets)
    values = np.repeat(np.array(list(pressure_bc.values()), dtype=float),
                       [nodes.size for nodes in node_sets])
    try:
        p, factor = mesh_integrals(mesh).flow_pattern.solve(
            A, _RESIDUAL_TOL, fixed, values=values)
    except RuntimeError as exc:
        free = np.ones(A.shape[0], dtype=bool)
        free[fixed] = False
        zero = free & (abs(A) @ free == 0.0)
        raise SolverError(
            f"flow matrix is singular after applying boundary conditions; "
            f"disconnected nodes: {np.flatnonzero(zero).tolist()[:20]}"
        ) from exc
    if not np.all(np.isfinite(p)):
        raise SolverError("pressure solve produced non-finite values")

    residual = np.linalg.norm((A @ p)[~factor.fixed])
    denom = spla.norm(A) * np.linalg.norm(p)
    if denom > 0 and residual / denom > _RESIDUAL_TOL:
        raise SolverError(
            f"pressure solve residual {residual / denom:.3e} exceeds "
            f"{_RESIDUAL_TOL:.1e}"
        )
    return PressureState(A=A, T=T, p=p, factor=factor)


def pressure_loads(T, p):
    """Consistent nodal load vector F = -T p from a pressure field."""
    return -(T @ p)
