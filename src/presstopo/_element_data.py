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
fixed pattern.  The design-independent load transformation T is assembled
once per thickness (``MeshIntegrals.load_matrix``).

Both solves prescribe values on some indices: the inlet and outlet
pressures, and the supports.  ``Pattern.reduction`` builds one ``Reduction``
per array of fixed indices and keeps it.  It holds the sorted fixed and free
indices and the index gathers that take M_ff and M_fd out of the ``data`` of
any matrix on the pattern in canonical CSC form; it forms the reduced
right-hand side b_f - M_fd v and scatters a free solution back.

It also factors M_ff (``Reduction.factor``), for the pressure solve, the
displacement solve and the flow adjoint alike.  SuperLU factors the float32
copy of M_ff and ``MixedLU`` refines its solutions in float64 (Langou et
al. 2006; Carson & Higham 2018), with one float64 factorization as the
fallback when refinement misses the caller's residual gate.  The column
ordering depends on the pattern only, so the first factorization computes
it (``MMD_AT_PLUS_A``) and the reduction folds it into its M_ff gather; every
later M_ff comes out already permuted and is factored as it is
(``NATURAL``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidArgumentError
from .honeymesh import _wachspress, hex_quadrature

# refinement steps after the first float32 solve of a right-hand side; the
# residual usually stops halving well before this many
_MAX_STEPS = 10


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


def _arrays(blocks):
    """The (data, indices, indptr) arrays of each sparse block, in turn."""
    return [a for b in blocks for a in (b.data, b.indices, b.indptr)]


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
        self._reductions = {}

    def assemble(self, values):
        """CSR matrix on this pattern from element blocks in element order."""
        data = np.bincount(self.slot, weights=values.ravel(),
                           minlength=self.nnz)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def reduction(self, fixed) -> Reduction:
        """The ``Reduction`` for the fixed indices ``fixed`` of a square
        pattern, built on the first call for this array and kept."""
        fixed = np.asarray(fixed, dtype=np.int64)
        key = fixed.tobytes()
        if key not in self._reductions:
            self._reductions[key] = Reduction(self, fixed)
        return self._reductions[key]


class Reduction:
    """M x = b with x = v prescribed on the fixed indices, reduced to
    M_ff x_f = b_f - M_fd v, for any matrix M on one square pattern.

    ``fixed`` is sorted and ``order`` is the permutation that sorted it, so
    the value passed with the i-th fixed index stays on that index; ``free``
    is the sorted rest.  The reduced unknowns are the free indices in the
    order ``rows``: ``free`` until the first ``factor`` call, ``free[q]``
    after it, where ``q`` is the fill-reducing order of that factorization.
    """

    def __init__(self, pattern, fixed):
        n = pattern.shape[0]
        self.order = np.argsort(fixed, kind="stable")
        self.fixed = fixed[self.order]
        if self.fixed.size and (self.fixed[0] < 0 or self.fixed[-1] >= n):
            raise InvalidArgumentError(f"fixed index out of range [0, {n})")
        if np.any(self.fixed[1:] == self.fixed[:-1]):
            raise InvalidArgumentError("a fixed index is listed twice")
        self.free = np.setdiff1d(np.arange(n), self.fixed, assume_unique=True)
        self.q, self.rows = None, self.free
        self._indptr, self._indices = pattern.indptr, pattern.indices
        self._slots = self._gather(self.free)
        _read_only(self.order, self.fixed, self.free, *_arrays(self._slots))

    def _gather(self, rows):
        """Slot gathers of M_ff and M_fd with the free indices in the order
        ``rows``."""
        indptr, indices = self._indptr, self._indices
        n, nf = indptr.size - 1, rows.size
        # the free rows in the order ``rows``, each entry holding its slot;
        # indices are numbered ``rows`` first, then fixed, so index i is free
        # when col[i] < nf.  tocsc is a counting sort by column that keeps
        # the rows of a column sorted
        col = np.empty(n, dtype=np.int64)
        col[np.concatenate([rows, self.fixed])] = np.arange(n)
        lengths = np.diff(indptr)[rows]
        ptr = np.append(0, np.cumsum(lengths))
        keep = np.arange(ptr[-1]) + np.repeat(indptr[rows] - ptr[:-1], lengths)
        slots = sp.csr_matrix((keep, col[indices[keep]], ptr),
                              shape=(nf, n)).tocsc()
        return slots[:, :nf], slots[:, nf:]

    def _block(self, matrix, k):
        if matrix.indptr is not self._indptr:
            raise InvalidArgumentError("matrix was not assembled on this mesh")
        s = self._slots[k]
        # the first factorization rewrites the gathers in place, so blocks
        # taken before it get their own index arrays
        return sp.csc_matrix((matrix.data[s.data], s.indices, s.indptr),
                             shape=s.shape, copy=self.q is None)

    def blocks(self, matrix):
        """M_ff and M_fd of ``matrix`` in canonical CSC form, free rows and
        columns in the order ``rows``; ``matrix`` must be assembled on this
        pattern (scipy keeps the pattern's ``indptr``)."""
        return self._block(matrix, 0), self._block(matrix, 1)

    def reduce(self, matrix, values=None, b=None):
        """b_f - M_fd v for ``matrix`` assembled on this pattern, in the
        order ``rows``.

        ``values`` are paired with the fixed indices in the order they were
        passed, zero by default; ``b`` defaults to zero.
        """
        m_fd = self._block(matrix, 1)
        if values is None:
            v = np.zeros(self.fixed.size)
        else:
            v = np.asarray(values, dtype=float)
            if v.shape != self.fixed.shape:
                raise InvalidArgumentError(f"{v.size} fixed values for "
                                           f"{self.fixed.size} fixed indices")
            v = v[self.order]
        return -(m_fd @ v) if b is None else b[self.rows] - m_fd @ v

    def factor(self, matrix, tol) -> MixedLU:
        """Solver of M_ff x_f = c for ``matrix``, ``c`` and ``x_f`` in the
        order ``rows`` of the calls that follow; ``tol`` is its gate on
        ||c - M_ff x_f|| / ||c||.

        The first call factors M_ff with SuperLU's ``MMD_AT_PLUS_A`` column
        ordering, which depends on the pattern only, and folds it into the
        gathers: from then on ``blocks`` returns M_ff symmetrically permuted
        and every factorization keeps that order (``NATURAL``).  Raises
        ``RuntimeError`` when M_ff is singular in double precision too.
        """
        m_ff = self._block(matrix, 0)
        spec = "MMD_AT_PLUS_A" if self.q is None else "NATURAL"
        try:
            lu = spla.splu(m_ff.astype(np.float32), permc_spec=spec)
        except RuntimeError:  # singular in single precision
            return MixedLU(m_ff, tol, None, spec)
        if self.q is not None:
            return MixedLU(m_ff, tol, lu.solve, spec)
        # SuperLU factors M_ff[:, q], q the inverse of perm_c.  The permuted
        # gathers overwrite the first ones: freeing those instead leaves
        # holes that fragment the heap (two 61x30 arch runs: peak RSS 115
        # -> 139 MB)
        perm_c, q = lu.perm_c, np.argsort(lu.perm_c)
        for a, b in zip(_arrays(self._slots),
                        _arrays(self._gather(self.free[q]))):
            a.flags.writeable = True
            a[...] = b
        self.q, self.rows = q, self.free[q]
        _read_only(self.q, self.rows, *_arrays(self._slots))
        # the first factor solves the permuted system through the same
        # permutation
        return MixedLU(self._block(matrix, 0), tol,
                       lambda c: lu.solve(c[perm_c])[q], "NATURAL")

    def expand(self, x_free, values=None):
        """Full vector: ``x_free`` (in the order ``rows``) on the free indices,
        ``values`` (paired as in ``reduce``, zero by default) on the fixed
        ones."""
        out = np.zeros(self.free.size + self.fixed.size)
        if values is not None:
            out[self.fixed] = np.asarray(values, dtype=float)[self.order]
        out[self.rows] = x_free
        return out


class MixedLU:
    """Solves M x = b for a float64 CSC matrix M with a single-precision LU
    factor refined in double precision, after Langou et al. 2006 and Carson
    & Higham 2018 (SIAM J. Sci. Comput. 40:A817).

    ``solve32`` applies the float32 factor to a float32 vector.  Refinement
    repeats x += LU32^-1 r, r = b - M x in float64 until ||r|| / ||b|| no
    longer halves, at most ``_MAX_STEPS`` times.  When the result misses
    ``tol`` (or is not finite), or ``solve32`` is None because the float32
    factorization failed, M is factored once in float64 with ``permc_spec``
    and that factor solves from then on; ``fallbacks`` counts it.  ``steps``
    holds the refinement steps of the last solve.
    """

    def __init__(self, matrix, tol, solve32, permc_spec):
        self.matrix, self.tol = matrix, tol
        self._solve32, self._spec = solve32, permc_spec
        self._lu64 = None
        self.steps = self.fallbacks = 0
        if solve32 is None:
            self._factor64()

    def _factor64(self):
        self.fallbacks += 1
        self._lu64 = spla.splu(self.matrix, permc_spec=self._spec)

    def __call__(self, b):
        if self._lu64 is None:
            x, rel = self._refine(b)
            if rel <= self.tol:
                return x
            self._factor64()
        return self._lu64.solve(b)

    def _refine(self, b):
        """Refined solution of M x = b and its ||b - M x|| / ||b||."""
        self.steps = 0
        b_norm = np.linalg.norm(b)
        if b_norm == 0.0:
            return np.zeros_like(b), 0.0
        x = self._solve32(b.astype(np.float32)).astype(np.float64)
        r = b - self.matrix @ x
        rel = np.linalg.norm(r) / b_norm
        while self.steps < _MAX_STEPS:
            self.steps += 1
            x_new = x + self._solve32(r.astype(np.float32))
            r_new = b - self.matrix @ x_new
            rel_new = np.linalg.norm(r_new) / b_norm
            if not rel_new < rel:  # no progress, or not finite
                break
            halved = rel_new <= 0.5 * rel
            x, r, rel = x_new, r_new, rel_new
            if not halved:
                break
        return x, rel


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
