"""Element integrals of the honeycomb's one template hexagon.

``generate_mesh`` builds every element as a translate of one template
hexagon, so the quadrature, the Wachspress values and gradients, and the
element matrices are computed once from element 0's own vertices and shared
by every element.  ``tests/test_honeymesh.py::TestCongruence`` guards that
assumption: each element's vertex offsets from its centroid equal element 0's.
"""

from __future__ import annotations

import numpy as np

from .honeymesh import _wachspress, hex_quadrature


def element_quadrature(vertices):
    """Fan-quadrature weights (nq,), Wachspress values (nq, 6), gradients (nq, 6, 2)."""
    rule = hex_quadrature(vertices)
    shape, grads = _wachspress(vertices, rule.points, with_gradients=True)
    return rule.weights, shape, grads


def stiffness_kernel(weights, grads, nu, thickness):
    """(12, 12) plane-stress t * integral B^T C B for unit Young's modulus."""
    c = np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]]
    ) / (1.0 - nu * nu)
    b = np.zeros((weights.size, 3, 12))
    b[:, 0, 0::2] = grads[:, :, 0]
    b[:, 1, 1::2] = grads[:, :, 1]
    b[:, 2, 0::2] = grads[:, :, 1]
    b[:, 2, 1::2] = grads[:, :, 0]
    return thickness * np.einsum("q,qci,cd,qdj->ij", weights, b, c, b)


class MeshIntegrals:
    """Template element matrices and the element DOF maps of one mesh."""

    def __init__(self, mesh):
        self.weights, self.shape, self.grads = element_quadrature(
            mesh.element_vertices(0))
        # (6, 6) integral grad N_a . grad N_b and integral N_a N_b
        self.diffusion = np.einsum("q,qad,qbd->ab", self.weights, self.grads,
                                   self.grads)
        self.mass = np.einsum("q,qa,qb->ab", self.weights, self.shape,
                              self.shape)
        self.conn = mesh.elements
        # interleaved displacement DOFs per element, (n_elements, 12)
        self.udofs = np.empty((mesh.n_elements, 12), dtype=self.conn.dtype)
        self.udofs[:, 0::2] = 2 * self.conn
        self.udofs[:, 1::2] = 2 * self.conn + 1
        self._stiffness = {}

    def load(self, thickness):
        """(12, 6) matrix T_e with T_e[2a+d, b] = t * integral N_a dN_b/dx_d."""
        m = np.einsum("q,qa,qbd->adb", self.weights, self.shape, self.grads)
        return thickness * m.reshape(12, 6)

    def stiffness(self, nu, thickness):
        """(12, 12) unit-modulus plane-stress stiffness, built once, read-only."""
        k0 = self._stiffness.get((nu, thickness))
        if k0 is None:
            k0 = stiffness_kernel(self.weights, self.grads, nu, thickness)
            k0.flags.writeable = False
            self._stiffness[nu, thickness] = k0
        return k0


def mesh_integrals(mesh) -> MeshIntegrals:
    """Integral data for ``mesh``, cached on the mesh object."""
    if "integrals" not in mesh._cache:
        mesh._cache["integrals"] = MeshIntegrals(mesh)
    return mesh._cache["integrals"]
