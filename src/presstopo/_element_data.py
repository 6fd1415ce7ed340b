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
pressures, and the supports.  ``Pattern.solve`` is the one Dirichlet solve
of the pressure and the displacements, for any set of fixed indices: it
rejects a right-hand side or prescribed values that are not finite, forms
c = b - M x_D with x_D the prescribed values, zero elsewhere, zeroes c on
the fixed indices, and solves with the ``MixedCholesky`` of M with the
fixed rows and columns made unit pivots, so that its free part is exactly
M_ff x_f = c_f; the flow adjoint reuses that solver.

Every square pattern is factored in one fill-reducing order per mesh: a
nested dissection of the honeycomb's element grid (George 1973, SIAM J.
Numer. Anal. 10:345; ``nested_dissection``).  Boxes of element columns and
rows are halved across their longer side, and the nodes shared across a cut
are its separator, so the order needs no search.  The same pass groups the
nodes into the fronts of a multifrontal Cholesky factor (Duff & Reid 1983;
Liu 1992): each separator is one front, and so is each box of at most
``2**_LEAF_BITS`` elements.  Each square pattern builds the symbolic part of
that factor once, over all its unknowns (``Pattern.tree``, an
``EliminationTree``, which groups the fronts of each height of the tree
into batches of like shape, each padded to its largest front), and
``MixedCholesky`` factors M on it (``Cholesky``, from LAPACK's ``potrf``,
``trtri`` and BLAS ``trsm`` and ``syrk``; each triangular sweep is one loop
over the batches): in float32, with solutions refined in float64 (Langou
et al. 2006; Carson & Higham 2018), and once in float64 by the same code
as the fallback when that factorization meets a pivot that is not positive
or refinement misses the caller's residual gate.  Either factor's solves
go through one refinement loop, whose last ||c_f - M_ff x_f|| / ||c_f||
the displacement solve gates on (``MixedCholesky.residual``).  Only the
tree knows the elimination order: vectors go in and out in the pattern's
numbering.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import InvalidArgumentError
from .honeymesh import _VERTEX_OFFSETS, _wachspress, hex_quadrature

# refinement steps after the first float32 solve of a right-hand side; the
# residual usually stops halving well before this many
_MAX_STEPS = 10
# every box of at most 2**_LEAF_BITS elements is one dense leaf front of the
# Cholesky factor; 4, 5 and 6 were measured and 5 was fastest at 180x120
_LEAF_BITS = 5
# the fronts of one height are stored in batches, each padded to its largest
# front; a front shape starts a new batch where that stores more than this
# many fewer entries.  Solves were about as fast from 2**14 to 2**17 at 61x30
# and 180x120, and 2**17 keeps 16x10 at one batch per height and adds one
# batch to 61x30
_BATCH_PAD = 2**17


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
    return arrays


def nested_dissection(conn, nex, ney):
    """Rank of each node in a nested-dissection order of the element grid
    (George 1973), and the front of the Cholesky factor that eliminates it:
    element ``c * ney + r`` is column c, row r of an ``nex`` x ``ney`` grid,
    and ``conn`` lists its nodes.

    Every box of elements ``[c0, c1) x [r0, r1)`` with more than one element
    is halved at its middle column if it has at least as many columns as
    rows, and at its middle row otherwise.  Each element's ``path`` gets one
    bit per level, 1 in the upper half; a box of one element gets 1s.  A
    node's part of the tree is the smallest box holding all its elements:
    its paths share the part's prefix and differ in the ``below`` bits
    under it, so a node whose elements straddle a cut is a separator node of
    the box that cut halves, and every other node is in a box of one
    element (``below`` 0).  Sorting the nodes by the greatest path in their
    part (its prefix followed by 1s), then by ``below``, gives every box one
    run of ranks: its lower half, its upper half, then its separator.
    Within its part, a node is ranked by its lattice coordinate along the
    part's longer extent, x on a tie, then by its number; so a separator is
    ranked along its cut, and the struct of each child front takes a few
    runs of its parent's front (at most four on every mesh tested).

    The fronts number the parts in rank order, with every part of a box of
    at most ``2**_LEAF_BITS`` elements merged into that box: ``below`` is
    clamped at ``_LEAF_BITS``, and each box's run of ranks keeps its merged
    parts together.
    """
    cell = np.arange(nex * ney)
    grid = np.column_stack(np.divmod(cell, ney))
    lo, hi = np.zeros_like(grid), np.tile([nex, ney], (cell.size, 1))
    path = np.zeros(cell.size, dtype=np.int64)
    while np.any(hi - lo > 1):
        axis = (hi - lo).argmax(axis=1)  # columns first on a tie
        start, stop = lo[cell, axis], hi[cell, axis]
        mid = (start + stop) // 2
        upper = grid[cell, axis] >= mid
        lo[cell, axis] = np.where(upper, mid, start)
        hi[cell, axis] = np.where(upper, stop, mid)
        path = 2 * path + upper
    n = conn.max() + 1
    first, last = np.full(n, path.max()), np.zeros(n, dtype=np.int64)
    np.minimum.at(first, conn, path[:, None])
    np.maximum.at(last, conn, path[:, None])
    below = np.frexp(first ^ last)[1].astype(np.int64)  # bit length
    # the parts in rank order, each ranking its nodes along its longer
    # extent on the lattice, then by number; Mesh centres element (c, r) at
    # (3c+2, 2r+1+(c&1))
    _, part = np.unique(((last | ((1 << below) - 1)) << 6) | below,
                        return_inverse=True)
    point = np.empty((2, n), dtype=np.int64)
    point[0, conn] = 3 * grid[:, :1] + 2 + _VERTEX_OFFSETS[:, 0]
    point[1, conn] = (2 * grid[:, 1:] + 1 + (grid[:, :1] & 1)
                      + _VERTEX_OFFSETS[:, 1])
    low = np.full((2, part.max() + 1), point.max())
    high = np.zeros_like(low)
    for d in range(2):
        np.minimum.at(low[d], part, point[d])
        np.maximum.at(high[d], part, point[d])
    longer = (high - low).argmax(axis=0)  # x on a tie
    along = point[longer[part], np.arange(n)]
    order = np.argsort((part * (point.max() + 1) + along) * n + np.arange(n))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # a front is a box: its level above the elements and its path prefix
    below = np.maximum(below, _LEAF_BITS)[order]
    prefix = last[order] >> below
    front = np.empty(n, dtype=np.int64)
    front[order] = np.cumsum(np.r_[0, (below[1:] != below[:-1])
                                   | (prefix[1:] != prefix[:-1])])
    return rank, front


class Pattern:
    """CSR pattern of a matrix assembled from element blocks, and the slot in
    its ``data`` of each element entry.

    The node pattern lists the node pairs that share an element: CSR
    ``node_ptr`` and ``node_cols``, and ``node_slot`` (n_elements, 6, 6), the
    position of each element's node pair.  ``block=(br, bc)`` expands it to
    ``br`` interleaved DOFs per row node and ``bc`` per column node (DOF
    ``br * node + d``), the layout of ``MeshIntegrals.udofs``.  A square
    pattern that is solved on gets ``node_order``, the rank of each node in
    the order its blocks are factored in and the front that eliminates it;
    DOF ``br * node + d`` takes ``rank`` ``br * node_rank[node] + d`` and its
    node's ``front``.  ``slot`` is int32, one entry per element entry.
    """

    def __init__(self, node_ptr, node_cols, node_slot, block, node_order=None):
        br, bc = block
        n = node_ptr.size - 1
        self.nnz = node_cols.size * br * bc
        # number the entries block by block; bsr_tocsr moves each number to
        # its place in CSR order, with every row's columns sorted
        csr = sp.bsr_matrix(
            (np.arange(self.nnz).reshape(-1, br, bc), node_cols, node_ptr),
            shape=(br * n, bc * n),
        ).tocsr()
        pos = np.empty(self.nnz, dtype=np.int32)
        pos[csr.data] = np.arange(self.nnz, dtype=np.int32)
        self.shape, self.indptr, self.indices = csr.shape, csr.indptr, csr.indices
        # element entry (br a + d, bc b + e) sits at pos[node_slot[., a, b], d, e]
        self.slot = pos.reshape(-1, br, bc)[node_slot].transpose(
            0, 1, 3, 2, 4).ravel()
        if node_order is not None:
            node_rank, node_front = node_order
            self.rank = (br * node_rank[:, None] + np.arange(br)).ravel()
            self.front = np.repeat(node_front, br)
            _read_only(self.rank, self.front)
        _read_only(self.indptr, self.indices, self.slot)

    def assemble(self, values):
        """CSR matrix on this pattern from element blocks in element order."""
        data = np.bincount(self.slot, weights=values.ravel(),
                           minlength=self.nnz)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    @cached_property
    def tree(self) -> EliminationTree:
        """The symbolic Cholesky factor of every matrix on this square
        pattern, built on first use."""
        return EliminationTree(self)

    def solve(self, matrix, tol, fixed, b=None, values=None):
        """Solve ``matrix`` x = ``b`` with x = ``values`` on the ``fixed``
        indices (from ``check_fixed``); returns x and the ``MixedCholesky``
        of ``matrix``, whose ``residual`` is ||c_f - M_ff x_f|| / ||c_f||
        for c = b - M x_D, x_D the values on the fixed indices and zero
        elsewhere.

        ``values[i]`` is prescribed on ``fixed[i]``; it and ``b`` default to
        zero.  ``tol`` is the refinement's gate on the residual.  Raises
        ``InvalidArgumentError`` for a non-finite ``b`` or ``values``, and
        ``RuntimeError`` when M_ff is not positive definite in float64.
        """
        if matrix.indptr is not self.indptr:  # assembled here: shared indptr
            raise InvalidArgumentError("matrix was not assembled on this mesh")
        n = self.shape[0]
        v = np.zeros(fixed.size) if values is None else np.asarray(
            values, dtype=float)
        if v.shape != fixed.shape:
            raise InvalidArgumentError(f"{v.size} fixed values for "
                                       f"{fixed.size} fixed indices")
        b = 0.0 if b is None else b
        if not (np.isfinite(b).all() and np.isfinite(v).all()):
            raise InvalidArgumentError(
                "right-hand side and prescribed values must be finite")
        c = b - matrix @ np.bincount(fixed, weights=v, minlength=n)
        mask = np.zeros(n, dtype=bool)
        mask[fixed] = True
        factor = MixedCholesky(matrix, mask, tol, self.tree)
        x = factor(c)
        x[fixed] = v
        return x, factor


def check_fixed(fixed, n):
    """``fixed`` as int64 indices of ``n`` unknowns; raises
    ``InvalidArgumentError`` when they are not integers, a boolean mask
    included, or one is out of range or listed twice."""
    fixed = np.asarray(fixed)
    if fixed.size and fixed.dtype.kind not in "iu":
        raise InvalidArgumentError("fixed indices must be integers")
    fixed = fixed.astype(np.int64)
    if np.any((fixed < 0) | (fixed >= n)):
        raise InvalidArgumentError(f"fixed index out of range [0, {n})")
    if np.bincount(fixed, minlength=n).max() > 1:
        raise InvalidArgumentError("a fixed index is listed twice")
    return fixed


class EliminationTree:
    """The symbolic part of the multifrontal Cholesky factor (Duff & Reid
    1983, ACM TOMS 9:302; Liu 1992, SIAM Review 34:82) of every matrix on
    one square symmetric ``pattern``, over all its unknowns, built once per
    pattern.

    The unknowns are eliminated in the order of ``pattern.rank``, and
    ``pattern.front`` assigns each to a front, so that each front eliminates
    one run of that order, its pivots, as one dense block.  Its ``struct``
    is the later unknowns its block column of L reaches: the rows of its own
    columns below its pivots and the structs of its children.  The parent of
    a front is the front of the first unknown in its struct, which holds
    every unknown of that struct in its own pivots or struct, so a child's
    update matrix (struct x struct) is added into its parent's front by
    slices, one pair per pair of the contiguous runs its struct takes in the
    parent.

    ``gather`` holds the positions in the pattern's ``data`` of the lower
    triangle in elimination order, column by column, and ``rows`` and
    ``cols`` the unknowns of each.  ``fronts`` holds, per front in
    elimination order: its numbers of pivots and of struct unknowns; the
    slice of ``gather`` that holds its own columns, and ``dst``, where each
    of those entries goes in its dense pivot and L21 blocks; its children
    with their slices (``_extend_add``); and its batch and its slot in it.

    Fronts of one height in the tree (leaves 0) do not depend on each
    other.  Each height's fronts, sorted by shape, are cut into ``batches``
    (``_batches``), in order of height, each holding its fronts' pivots and
    structs in the pattern's numbering, padded to the batch's largest front
    with the index ``n``, for the batched triangular solves.  The index
    arrays as long as the lower triangle, ``gather``, ``rows`` and
    ``cols``, and each ``dst`` are int32.
    """

    def __init__(self, pattern):
        n = self.n = pattern.shape[0]
        perm = np.argsort(pattern.rank).astype(np.int32)
        front = pattern.front[perm]
        # each entry holds its slot + 1, so that no slot is a zero, in the
        # column of its rank; taking the rows in elimination order and tocsc,
        # a counting sort by column, give each column's rows sorted
        csc = sp.csr_matrix((np.arange(1, pattern.nnz + 1, dtype=np.int32),
                             pattern.rank[pattern.indices], pattern.indptr),
                            shape=pattern.shape)[perm].tocsc()
        # nested_dissection numbers the fronts 0, 1, ... in elimination order
        bounds = np.r_[np.flatnonzero(np.diff(front, prepend=-1)), n]
        n_fronts = bounds.size - 1
        # the lower triangle, in CSC order and so grouped by front
        col = np.repeat(np.arange(n), np.diff(csc.indptr))
        lower = np.flatnonzero(csc.indices >= col)
        row, col = csc.indices[lower], col[lower]
        self.gather = csc.data[lower] - 1
        self.rows, self.cols = perm[row], perm[col]
        f = front[col]
        entry_ptr = np.searchsorted(f, np.arange(n_fronts + 1))
        past = row >= bounds[f + 1]
        own_f, own_rows = np.divmod(np.unique(f[past] * n + row[past]), n)
        own_ptr = np.searchsorted(own_f, np.arange(n_fronts + 1))

        self.fronts, structs, members, height = [], [], [], []
        children = [[] for _ in range(n_fronts)]
        for s, (start, end) in enumerate(zip(bounds[:-1].tolist(),
                                             bounds[1:].tolist())):
            p = end - start
            struct = np.unique(np.concatenate(
                [own_rows[own_ptr[s]:own_ptr[s + 1]]]
                + [structs[c][structs[c] >= end] for c in children[s]]))
            index = np.concatenate([np.arange(start, end), struct])
            adds = [(c, _extend_add(np.searchsorted(index, structs[c]), p))
                    for c in children[s]]
            lo, hi = entry_ptr[s], entry_ptr[s + 1]
            r, j = row[lo:hi], col[lo:hi] - start
            dst = np.where(r < end, r - start + p * j,
                           p * p + np.searchsorted(struct, r)
                           + struct.size * j).astype(np.int32)
            height.append(max((height[c] + 1 for c in children[s]),
                              default=0))
            if height[s] == len(members):
                members.append([])
            members[height[s]].append(s)
            self.fronts.append((p, struct.size, slice(lo, hi), dst, adds))
            structs.append(struct)
            if struct.size:
                children[front[struct[0]]].append(s)

        # each height's fronts, sorted by shape and cut into batches
        self.batches = []
        for level in members:
            level.sort(key=lambda s: self.fronts[s][:2])
            for lo, hi, p, u in _batches([self.fronts[s][:2] for s in level]):
                piv, upd = np.full((hi - lo, p), n), np.full((hi - lo, u), n)
                for i, s in enumerate(level[lo:hi]):
                    pivots = perm[bounds[s]:bounds[s + 1]]
                    piv[i, :pivots.size] = pivots
                    upd[i, :structs[s].size] = perm[structs[s]]
                    self.fronts[s] += (len(self.batches), i)
                self.batches.append((piv, upd))
        _read_only(self.gather, self.rows, self.cols,
                   *(a for batch in self.batches for a in batch),
                   *(entry[3] for entry in self.fronts))


def _batches(shapes):
    """Batches of the fronts of one height, whose (pivots, struct) counts
    ``shapes`` come sorted: (start, stop, pivots, struct) each, the last two
    the largest in the batch.  Each run of one shape joins the batch before
    it unless keeping the two apart stores more than ``_BATCH_PAD`` fewer
    entries."""
    cuts = []
    for (p, u), run in itertools.groupby(shapes):
        m = len(list(run))
        if cuts:
            lo, hi, p0, u0 = cuts[-1]
            k, p1, u1 = hi - lo, max(p0, p), max(u0, u)
            if ((k + m) * p1 * (p1 + u1) - k * p0 * (p0 + u0)
                    - m * p * (p + u) <= _BATCH_PAD):
                cuts[-1] = (lo, hi + m, p1, u1)
                continue
        start = cuts[-1][1] if cuts else 0
        cuts.append((start, start + m, p, u))
    return cuts


def _extend_add(pos, p):
    """Slices adding a child's update, whose rows and columns sit at
    positions ``pos`` of a front with ``p`` pivots, into the front's lower
    triangle: (block, rows, cols, child rows, child cols), block 0 the
    pivot block, 1 the struct x pivot block and 2 the struct block."""
    cut = (np.flatnonzero((np.diff(pos) != 1) | (pos[1:] == p)) + 1).tolist()
    # each run: child range [a, b), whether it lies in the struct, and its
    # first position in that block
    runs = [(a, b, int(at >= p), at - p * (at >= p)) for a, b, at in
            zip([0] + cut, cut + [pos.size], pos[[0] + cut].tolist())]
    return [(in_a + in_b, slice(ra, ra + a1 - a0), slice(rb, rb + b1 - b0),
             slice(a0, a1), slice(b0, b1))
            for i, (a0, a1, in_a, ra) in enumerate(runs)
            for b0, b1, in_b, rb in runs[:i + 1]]


class Cholesky:
    """Multifrontal Cholesky factor L L^T, in ``dtype``, of the matrix with
    ``data`` on the pattern of ``tree``, with the rows and columns of the
    unknowns where the boolean ``fixed`` is set made unit pivots.

    Each front, in order, gathers its entries of the lower triangle, adds
    its children's update matrices, and calls ``potrf`` on its pivot block,
    ``trsm`` for the L21 block below it and ``syrk`` for its own update
    matrix.  The inverse of each pivot block (``trtri``) and each L21 are
    stored in the arrays of the front's batch, so a solve is one loop over
    the batches per sweep: two batched products each, and in the forward
    sweep one ``np.subtract.at`` of the batch's updates into its structs.
    ``nnz`` counts the stored entries: each front's square inverse pivot
    block and its L21, both padded to the largest front of its batch.
    Raises ``np.linalg.LinAlgError`` when a pivot block is not positive
    definite.
    """

    def __init__(self, tree, data, fixed, dtype):
        potrf, trtri = get_lapack_funcs(("potrf", "trtri"), dtype=dtype)
        trsm, syrk = get_blas_funcs(("trsm", "syrk"), dtype=dtype)
        self.n, self.dtype = tree.n, dtype
        # per batch: the transposes of each front's inverse pivot block and
        # L21, zero-padded, stored row by row as LAPACK returns them
        self.batches = [(piv, upd,
                         np.zeros(piv.shape + piv.shape[1:], dtype),
                         np.zeros(piv.shape + upd.shape[1:], dtype))
                        for piv, upd in tree.batches]
        self.nnz = sum(inv.size + l21.size
                       for _, _, inv, l21 in self.batches)
        # numpy indexes with intp: the int32 indices are cast first, which is
        # faster than indexing with them
        values = data[tree.gather.astype(np.intp)].astype(dtype)
        cut = (fixed[tree.rows.astype(np.intp)]
               | fixed[tree.cols.astype(np.intp)])
        values[cut] = tree.rows[cut] == tree.cols[cut]
        updates = {}
        for s, (p, u, entries, dst, adds, batch, i) in enumerate(
                tree.fronts):
            buf = np.zeros(p * (p + u), dtype)
            buf[dst.astype(np.intp)] = values[entries]
            blocks = (buf[:p * p].reshape((p, p), order="F"),
                      buf[p * p:].reshape((u, p), order="F"),
                      np.zeros((u, u), dtype, order="F"))
            for child, slices in adds:
                update = updates.pop(child)
                for block, rows, cols, child_rows, child_cols in slices:
                    blocks[block][rows, cols] += update[child_rows, child_cols]
            l11, info = potrf(blocks[0], lower=1, overwrite_a=1)
            if info:
                raise np.linalg.LinAlgError(
                    f"front {s} is not positive definite")
            _, _, inv_t, l21_t = self.batches[batch]
            if u:
                l21 = trsm(1.0, l11, blocks[1], side=1, lower=1, trans_a=1,
                           overwrite_b=1)
                l21_t[i, :p, :u] = l21.T
                updates[s] = syrk(-1.0, l21, beta=1.0, c=blocks[2], lower=1,
                                  overwrite_c=1)
            inv_t[i, :p, :p] = trtri(l11, lower=1, overwrite_c=1)[0].T

    def solve(self, b):
        """x with L L^T x = b, in the factor's dtype; ``b`` is rounded to
        it, and both are in the pattern's numbering."""
        x = np.zeros(self.n + 1, dtype=self.dtype)  # x[n] is the padding
        x[:-1] = b
        for piv, upd, inv_t, l21_t in self.batches:
            y = np.matmul(x[piv][:, None, :], inv_t)
            x[piv] = y[:, 0, :]
            # unbuffered: the fronts of a batch share struct unknowns and the
            # padding; a 1-D index takes numpy's fast path
            np.subtract.at(x, upd.ravel(), np.matmul(y, l21_t).ravel())
        for piv, upd, inv_t, l21_t in reversed(self.batches):
            z = x[piv] - np.matmul(l21_t, x[upd][:, :, None])[:, :, 0]
            x[piv] = np.matmul(inv_t, z[:, :, None])[:, :, 0]
        return x[:-1]


class MixedCholesky:
    """Solves M_ff x_f = b_f for the free block of a float64 symmetric CSR
    matrix M, whose free block is positive definite, with a single-precision
    Cholesky factor refined in double precision, after Langou et al. 2006
    and Carson & Higham 2018 (SIAM J. Sci. Comput. 40:A817).

    The boolean ``fixed`` marks the prescribed unknowns.  Vectors are full
    and in M's numbering: b is read on the free unknowns only, and x is zero
    on the fixed ones.  ``Cholesky`` factors M in float32 on ``tree``, with
    the fixed unknowns as unit pivots.  Every solve is refined in float64 by
    the one loop x += (LL^T)^-1 r, r = b - M x zeroed on the fixed unknowns,
    until ||r|| / ||b_f|| no longer halves, at most ``_MAX_STEPS`` times.
    When the float32 factorization fails (a pivot that is not positive), or
    a refined result misses ``tol`` (or is not finite), M is factored once
    in float64 by the same code, and that factor, refined by the same loop,
    solves from then on; ``fallbacks`` counts it, and a float64 failure
    raises ``RuntimeError``.  ``steps`` holds the refinement steps of the
    last solve, ``residual`` its ||b_f - M_ff x_f|| / ||b_f||, both from the
    factor that produced x, and ``nnz`` the stored entries of that factor.
    """

    def __init__(self, matrix, fixed, tol, tree):
        self.matrix, self.fixed, self.tol = matrix, fixed, tol
        self._tree = tree
        self.steps = self.fallbacks = 0
        try:
            self._chol = Cholesky(tree, matrix.data, fixed, np.float32)
        except np.linalg.LinAlgError:  # not positive definite in float32
            self._factor64()

    @property
    def nnz(self):
        return self._chol.nnz

    def _factor64(self):
        self.fallbacks += 1
        try:
            self._chol = Cholesky(self._tree, self.matrix.data, self.fixed,
                                  np.float64)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"matrix is not positive definite: {exc}") \
                from exc

    def _residual(self, b, x):
        """b - M x on the free unknowns, zero on the fixed ones."""
        r = b - self.matrix @ x
        r[self.fixed] = 0.0
        return r

    def __call__(self, b):
        b = np.where(self.fixed, 0.0, b)
        x, self.residual = self._refine(b)
        if not self.fallbacks and not self.residual <= self.tol:
            self._factor64()
            x, self.residual = self._refine(b)
        return x

    def _refine(self, b):
        """Refined solution of M_ff x_f = b_f and its relative residual."""
        self.steps = 0
        b_norm = np.linalg.norm(b)
        if b_norm == 0.0:
            return np.zeros_like(b), 0.0
        x = self._chol.solve(b).astype(np.float64)
        r = self._residual(b, x)
        rel = np.linalg.norm(r) / b_norm
        while self.steps < _MAX_STEPS:
            self.steps += 1
            x_new = x + self._chol.solve(r)
            r_new = self._residual(b, x_new)
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
    the sparse patterns of one mesh; all their arrays are read-only."""

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
        self.grid = mesh.nex, mesh.ney
        # interleaved displacement DOFs per element, (n_elements, 12)
        self.udofs = np.empty((mesh.n_elements, 12), dtype=self.conn.dtype)
        self.udofs[:, 0::2] = 2 * self.conn
        self.udofs[:, 1::2] = 2 * self.conn + 1
        _read_only(self.weights, self.shape, self.grads, self.diffusion,
                   self.mass, self.udofs)
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
        return _read_only(node_ptr, pairs % n,
                          slot.reshape(self.conn.shape + (6,)))

    @cached_property
    def node_order(self):
        """Rank of each node in the mesh's nested-dissection order and the
        front that eliminates it, built once, with the first pattern that
        needs them."""
        return _read_only(*nested_dissection(self.conn, *self.grid))

    @cached_property
    def flow_pattern(self) -> Pattern:
        """Pattern of the (n_nodes, n_nodes) flow matrix A."""
        return Pattern(*self._node_pattern, block=(1, 1),
                       node_order=self.node_order)

    @cached_property
    def stiffness_pattern(self) -> Pattern:
        """Pattern of the (2 n_nodes, 2 n_nodes) stiffness matrix K."""
        return Pattern(*self._node_pattern, block=(2, 2),
                       node_order=self.node_order)

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
