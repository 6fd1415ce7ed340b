"""Element integrals of the honeycomb's one template hexagon, and the sparse
patterns the global matrices are assembled into.

``generate_mesh`` builds every element as a translate of one template
hexagon, so the quadrature, the Wachspress values and gradients, and the
element matrices are computed once from element 0's own vertices and shared
by every element.  ``tests/test_honeymesh.py::TestCongruence`` guards that
assumption: each element's vertex offsets from its centroid equal element 0's.

The honeycomb's connectivity never changes, so the CSR pattern of each
global matrix and the slot of every element entry in its ``data`` are built
once per mesh, on the first assembly (``MeshIntegrals.flow_pattern`` and
``stiffness_pattern``), after Andreassen et al. 2011 ("top88") and Ferrari &
Sigmund 2020 ("top99neo").  An assembly is then one ``np.bincount`` into the
fixed pattern, and ``Pattern.gather`` gives the index gather that takes a
block such as K_ff out of the assembled ``data`` in canonical CSC form.  The
design-independent load transformation T is assembled once per thickness
(``MeshIntegrals.load_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

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


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


@dataclass(frozen=True)
class Gather:
    """A block of every matrix on one pattern: canonical CSC ``indptr`` and
    ``indices``, filled by ``data[take]`` of the full matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray
    shape: tuple

    def __call__(self, matrix):
        return sp.csc_matrix((matrix.data[self.take], self.indices,
                              self.indptr), shape=self.shape)


class Pattern:
    """CSR pattern of a matrix assembled from element blocks, and the slot in
    its ``data`` of each element entry.

    The node pattern lists the node pairs that share an element: CSR
    ``node_ptr`` and ``node_cols``, and ``node_slot`` (n_elements, 6, 6), the
    position of each element's node pair.  ``block=(br, bc)`` expands it to
    ``br`` interleaved DOFs per row node and ``bc`` per column node (DOF
    ``br * node + d``), the layout of ``MeshIntegrals.udofs``.
    """

    def __init__(self, node_ptr, node_cols, node_slot, block):
        br, bc = block
        n = node_ptr.size - 1
        self.nnz = node_cols.size * br * bc
        # number the entries block by block; bsr_tocsr moves each number to
        # its place in CSR order, with every row's columns sorted
        csr = sp.bsr_matrix(
            (np.arange(self.nnz).reshape(-1, br, bc), node_cols, node_ptr),
            shape=(br * n, bc * n),
        ).tocsr()
        pos = np.empty(self.nnz, dtype=np.intp)
        pos[csr.data] = np.arange(self.nnz)
        self.shape, self.indptr, self.indices = csr.shape, csr.indptr, csr.indices
        # element entry (br a + d, bc b + e) sits at pos[node_slot[., a, b], d, e]
        self.slot = pos.reshape(-1, br, bc)[node_slot].transpose(
            0, 1, 3, 2, 4).ravel()
        _read_only(self.indptr, self.indices, self.slot)
        # per boundary-condition set: the solvers' index sets and gathers
        self.bc_cache = {}

    def assemble(self, values):
        """CSR matrix on this pattern from element blocks in element order."""
        data = np.bincount(self.slot, weights=values.ravel(),
                           minlength=self.nnz)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def holds(self, matrix):
        """Whether ``matrix`` was assembled on this pattern (scipy keeps the
        pattern's ``indptr`` itself and a view of its ``indices``)."""
        return matrix.indptr is self.indptr

    def gather(self, rows, cols) -> Gather:
        """The block M[rows][:, cols] of any M on this pattern; ``rows`` and
        ``cols`` are sorted and unique."""
        n_rows, n_cols = self.shape
        new_row = np.full(n_rows, -1)
        new_row[rows] = np.arange(rows.size)
        new_col = np.full(n_cols, -1)
        new_col[cols] = np.arange(cols.size)
        entry_row = np.repeat(new_row, np.diff(self.indptr))
        entry_col = new_col[self.indices]
        keep = np.flatnonzero((entry_row >= 0) & (entry_col >= 0))
        counts = np.bincount(entry_row[keep], minlength=rows.size)
        # the block in CSR order, holding each entry's slot; tocsc is a
        # counting sort by column that keeps the rows of a column sorted
        block = sp.csr_matrix(
            (keep, entry_col[keep], np.append(0, np.cumsum(counts))),
            shape=(rows.size, cols.size),
        ).tocsc()
        _read_only(block.indptr, block.indices, block.data)
        return Gather(block.indptr, block.indices, block.data, block.shape)


class MeshIntegrals:
    """Template element matrices, element DOF maps and, built on first use,
    the sparse patterns of one mesh."""

    def __init__(self, mesh):
        self.weights, self.shape, self.grads = element_quadrature(
            mesh.element_vertices(0))
        # (6, 6) integral grad N_a . grad N_b and integral N_a N_b
        self.diffusion = np.einsum("q,qad,qbd->ab", self.weights, self.grads,
                                   self.grads)
        self.mass = np.einsum("q,qa,qb->ab", self.weights, self.shape,
                              self.shape)
        self.conn = mesh.elements
        self.n_nodes = mesh.n_nodes
        # interleaved displacement DOFs per element, (n_elements, 12)
        self.udofs = np.empty((mesh.n_elements, 12), dtype=self.conn.dtype)
        self.udofs[:, 0::2] = 2 * self.conn
        self.udofs[:, 1::2] = 2 * self.conn + 1
        self._stiffness = {}
        self._load_matrix = {}

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

    @cached_property
    def _node_pattern(self):
        """CSR of the node pairs that share an element, and the position of
        each element's (a, b) pair in it, (n_elements, 6, 6)."""
        n = self.n_nodes
        keys = (self.conn[:, :, None] * n + self.conn[:, None, :]).ravel()
        pairs, slot = np.unique(keys, return_inverse=True)
        node_ptr = np.searchsorted(pairs, np.arange(n + 1) * n)
        return node_ptr, pairs % n, slot.reshape(self.conn.shape + (6,))

    @cached_property
    def flow_pattern(self) -> Pattern:
        """Pattern of the (n_nodes, n_nodes) flow matrix A."""
        return Pattern(*self._node_pattern, block=(1, 1))

    @cached_property
    def stiffness_pattern(self) -> Pattern:
        """Pattern of the (2 n_nodes, 2 n_nodes) stiffness matrix K."""
        return Pattern(*self._node_pattern, block=(2, 2))

    def load_matrix(self, thickness):
        """(2 n_nodes, n_nodes) transformation T, built once per thickness;
        its arrays are read-only."""
        t = self._load_matrix.get(thickness)
        if t is None:
            pattern = Pattern(*self._node_pattern, block=(2, 1))
            t = pattern.assemble(np.broadcast_to(
                self.load(thickness), self.udofs.shape + (6,)))
            _read_only(t.data)
            self._load_matrix[thickness] = t
        return t


def mesh_integrals(mesh) -> MeshIntegrals:
    """Integral data for ``mesh``, cached on the mesh object."""
    if "integrals" not in mesh._cache:
        mesh._cache["integrals"] = MeshIntegrals(mesh)
    return mesh._cache["integrals"]
