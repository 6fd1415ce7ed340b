"""Scatter assembly into the fixed per-mesh patterns, and the Dirichlet
solves on each pattern's one elimination tree.

The oracle assembles every element matrix into a dense array one element at
a time; the trees' gathers and the solves' free blocks are compared with
dense slicing.
"""

import re
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import (
    FlowParams,
    InvalidArgumentError,
    MaterialSet,
    SingularSystemError,
    SolverError,
    assemble_flow,
    assemble_stiffness,
    build_filter,
    compliance_sensitivity,
    generate_mesh,
    solve_displacements,
    solve_pressure,
)
from presstopo import _element_data
from presstopo._element_data import mesh_integrals
from presstopo.config import load_config
from presstopo.driver import (
    analyze,
    build_problem,
    initial_design,
    make_design,
)
from presstopo.darcy import drainage_coefficient, flow_coefficient
from presstopo.fields import interpolate_modulus

from conftest import make_uniform_design

MATS = MaterialSet(e_moduli=(40e6, 100e6), nu=0.4, thickness=1e-3)
FLOW = FlowParams(d_solid=0.5)
EDGES = ("top", "bottom", "left", "right")


def dense_oracle(shape, row_dofs, col_dofs, blocks):
    out = np.zeros(shape)
    for rows, cols, block in zip(row_dofs, col_dofs, blocks):
        out[np.ix_(rows, cols)] += block
    return out


@st.composite
def problems(draw):
    nex = draw(st.integers(1, 8))
    ney = draw(st.integers(1, 6))
    mesh = generate_mesh(nex, ney, 0.1 * nex, 0.1 * ney)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    design = make_uniform_design(mesh, [0.5, 0.5])
    design.filtered = rng.uniform(0.0, 1.0, design.filtered.shape)
    ndof = 2 * mesh.n_nodes
    n_fixed = draw(st.integers(1, ndof - 1))
    fixed = np.sort(rng.choice(ndof, size=n_fixed, replace=False))
    edges = draw(st.lists(st.sampled_from(EDGES), min_size=1, max_size=4,
                          unique=True))
    return mesh, design, fixed, edges, rng


def element_boxes(nex, ney):
    """Each element's chain of boxes (c0, c1, r0, r1), root first: a box of
    more than one element is halved at its middle column if it has at least
    as many columns as rows, and at its middle row otherwise."""
    chains = {}

    def split(box, chain):
        c0, c1, r0, r1 = box
        chain = chain + [box]
        if (c1 - c0) * (r1 - r0) == 1:
            chains[c0 * ney + r0] = chain
        elif c1 - c0 >= r1 - r0:
            mid = (c0 + c1) // 2
            split((c0, mid, r0, r1), chain)
            split((mid, c1, r0, r1), chain)
        else:
            mid = (r0 + r1) // 2
            split((c0, c1, r0, mid), chain)
            split((c0, c1, mid, r1), chain)

    split((0, nex, 0, ney), [])
    return [chains[e] for e in range(nex * ney)]


def node_parts(mesh):
    """The smallest box holding all elements of each node, and every box."""
    chains = element_boxes(mesh.nex, mesh.ney)
    held_by = [[] for _ in range(mesh.n_nodes)]
    for e, nodes in enumerate(mesh.elements):
        for node in nodes:
            held_by[node].append(chains[e])
    part = [[box for box in held[0] if all(box in c for c in held)][-1]
            for held in held_by]
    return part, {box for chain in chains for box in chain}


def dof_rank(data, pattern):
    """Rank of each unknown of ``pattern`` in its elimination order, from
    the mesh's one node order: DOF ``b * node + d`` of a pattern with ``b``
    DOFs per node takes rank ``b * rank[node] + d``."""
    b = pattern.shape[0] // data.n_nodes
    return (b * data.node_order[0][:, None] + np.arange(b)).ravel()


def column_of_entries(tree):
    """The unknown whose column holds each entry of ``tree.gather``, from
    the column runs; the runs tile ``gather`` in elimination order."""
    start, stop = tree.columns.T
    order = np.argsort(start)
    assert np.array_equal(start[order], np.r_[0, stop[order][:-1]])
    assert stop[order][-1] == tree.gather.size
    assert np.array_equal(tree.rows[start], np.arange(start.size))
    return np.repeat(order, (stop - start)[order])


def inside(a, b):
    """Box ``a`` lies in box ``b``."""
    return b[0] <= a[0] and a[1] <= b[1] and b[2] <= a[2] and a[3] <= b[3]


class TestScatterAssembly:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(problems())
    def test_matches_dense_oracle_and_gathers(self, problem):
        mesh, design, fixed, edges, rng = problem
        data = mesh_integrals(mesh)
        k = assemble_stiffness(mesh, design, MATS)
        a, t = assemble_flow(mesh, design, FLOW)

        e_elem = interpolate_modulus(design.filtered, MATS)
        k0 = data.stiffness(MATS.nu, MATS.thickness)
        k_dense = dense_oracle(k.shape, data.udofs, data.udofs,
                               [e * k0 for e in e_elem])
        kf, _ = flow_coefficient(design.filtered[:, 0], FLOW)
        df, _ = drainage_coefficient(design.filtered[:, 0], FLOW)
        a_dense = dense_oracle(a.shape, data.conn, data.conn,
                               [ki * data.diffusion + di * data.mass
                                for ki, di in zip(kf, df)])
        t_e = data.load(design.thickness)
        t_dense = dense_oracle(t.shape, data.udofs, data.conn,
                               [t_e] * mesh.n_elements)
        for got, want in ((k, k_dense), (a, a_dense)):
            assert got.has_canonical_format
            assert np.abs(got.toarray() - want).max() \
                <= 1e-13 * np.abs(want).max()
        # T is applied, not stored: its products with the identity are the
        # oracle's columns and rows
        for got, want in ((t @ np.eye(t.shape[1]), t_dense),
                          (t.T @ np.eye(t.shape[0]), t_dense.T)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

        # each tree gathers the lower triangle in the pattern's
        # fill-reducing order from the matrix's own data, each entry once,
        # column by column with sorted rows
        for pattern, matrix in ((data.stiffness_pattern, k),
                                (data.flow_pattern, a)):
            tree, n = pattern.tree, pattern.shape[0]
            assert tree.gather.size == (pattern.nnz + n) // 2
            cols = column_of_entries(tree)
            assert np.array_equal(pattern.indices[tree.gather], cols)
            assert np.array_equal(
                np.searchsorted(pattern.indptr, tree.gather, "right") - 1,
                tree.rows)
            rank = dof_rank(data, pattern)
            row, col = rank[tree.rows], rank[cols]
            assert np.all(row >= col)
            assert np.all(np.diff(col * n + row) > 0)
            assert np.array_equal(matrix.data[tree.gather],
                                  matrix.toarray()[tree.rows, cols])

        # the values travel with their DOFs, in whatever order they come;
        # the bottom edge removes the rigid modes
        bottom = mesh.boundary_node_sets["bottom"]
        supports = np.union1d(fixed, np.concatenate([2 * bottom,
                                                     2 * bottom + 1]))
        values = rng.normal(size=supports.size)
        perm = rng.permutation(supports.size)
        f = rng.normal(size=k.shape[0])
        u = solve_displacements(k, f, mesh, supports, values)[0]
        assert np.array_equal(u[supports], values)
        permuted = solve_displacements(k, f, mesh, supports[perm],
                                       values[perm])[0]
        assert np.array_equal(permuted, u)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(problems())
    def test_node_order_is_a_nested_dissection(self, problem):
        mesh = problem[0]
        data = mesh_integrals(mesh)
        grid = (mesh.elements, mesh.element_cols, mesh.element_rows,
                mesh.node_lattice)
        rank, front = _element_data.nested_dissection(*grid)
        assert np.array_equal(np.sort(rank), np.arange(mesh.n_nodes))
        assert np.array_equal(rank, data.node_order[0])
        assert np.array_equal(front, data.node_order[1])
        again = _element_data.nested_dissection(*grid)
        assert np.array_equal(rank, again[0])
        assert np.array_equal(front, again[1])

        part, boxes = node_parts(mesh)
        # an edge joins two nodes of nested parts, so no edge joins the two
        # halves of a box
        ptr, cols = data.flow_pattern.indptr, data.flow_pattern.indices
        rows = np.repeat(np.arange(mesh.n_nodes), np.diff(ptr))
        for u, v in zip(rows, cols):
            assert inside(part[u], part[v]) or inside(part[v], part[u])
        # each box's nodes take one run of ranks, its own separator last; a
        # box can hold no node of its own, or none at all
        for box in boxes:
            held = rank[[inside(p, box) for p in part]]
            own = rank[[p == box for p in part]]
            if not held.size:
                continue
            assert held.max() - held.min() + 1 == held.size
            assert np.array_equal(np.sort(own), np.arange(
                held.max() - own.size + 1, held.max() + 1))

        # a front is a separator of a box more than _LEAF_BITS levels above
        # the elements, or a whole box at that level; fronts number the
        # boxes in rank order
        chains = element_boxes(mesh.nex, mesh.ney)
        leaf = max(max(len(chain) for chain in chains) - 1
                   - _element_data._LEAF_BITS, 0)
        boxes = []
        for node, box in enumerate(part):
            chain = chains[np.flatnonzero(mesh.elements == node)[0] // 6]
            boxes.append(box if chain.index(box) < leaf else chain[leaf])
        assert np.all(np.diff(front[np.argsort(rank)]) >= 0)
        for u in range(mesh.n_nodes):
            assert np.array_equal(front == front[u],
                                  [box == boxes[u] for box in boxes])


class TestPatternsBuiltOnce:
    def test_lazy_and_shared_per_mesh(self):
        mesh = generate_mesh(5, 4, 1.0, 0.8)
        data = mesh_integrals(mesh)
        built = ("node_order", "flow_pattern", "stiffness_pattern")
        assert not any(name in vars(data) for name in built)

        design = make_uniform_design(mesh, [0.5, 0.5])
        k1 = assemble_stiffness(mesh, design, MATS)
        k2 = assemble_stiffness(mesh, design, MATS)
        assert k1.indptr is k2.indptr is data.stiffness_pattern.indptr
        assert np.shares_memory(k1.indices, k2.indices)
        (a1, t1), (a2, t2) = (assemble_flow(mesh, design, FLOW)
                              for _ in range(2))
        assert a1.indptr is a2.indptr is data.flow_pattern.indptr
        # T is rebuilt from the element template on each call, the same
        # operator each time and linear in the thickness
        eye = np.eye(mesh.n_nodes)
        assert np.array_equal(t1 @ eye, t2 @ eye)

        thicker = make_uniform_design(mesh, [0.5, 0.5], thickness=2e-3)
        t3 = assemble_flow(mesh, thicker, FLOW)[1]
        assert np.allclose(t3 @ eye, 2.0 * (t1 @ eye), rtol=1e-15, atol=0.0)

    def test_tree_built_once_per_pattern(self, monkeypatch):
        built = []
        tree = _element_data.EliminationTree

        def counted(pattern):
            built.append(pattern)
            return tree(pattern)

        monkeypatch.setattr(_element_data, "EliminationTree", counted)
        mesh = generate_mesh(4, 3, 0.4, 0.3)
        data = mesh_integrals(mesh)
        design = make_uniform_design(mesh, [0.6, 0.5])
        a, t = assemble_flow(mesh, design, FLOW)
        s1 = solve_pressure(a, t, mesh, {"top": 1e5, "bottom": 0.0})
        s2 = solve_pressure(a, t, mesh, {"top": 2e5, "bottom": 0.0})
        s3 = solve_pressure(a, t, mesh, {"left": 1e5, "right": 0.0})
        assert np.allclose(s2.p, 2.0 * s1.p, rtol=1e-12, atol=0.0)
        for state, edges in ((s1, ("top", "bottom")), (s3, ("left", "right"))):
            dirichlet = np.concatenate([mesh.boundary_node_sets[edge]
                                        for edge in edges])
            assert np.array_equal(np.flatnonzero(state.factor.fixed),
                                  np.sort(dirichlet))
        assert built == [data.flow_pattern]

        k = assemble_stiffness(mesh, design, MATS)
        f = np.zeros(k.shape[0])
        f[2 * mesh.boundary_node_sets["top"] + 1] = -1.0
        for edge in ("bottom", "left"):
            nodes = mesh.boundary_node_sets[edge]
            solve_displacements(k, f, mesh,
                                np.concatenate([2 * nodes, 2 * nodes + 1]))
        assert built == [data.flow_pattern, data.stiffness_pattern]

    def test_every_cached_array_is_read_only(self):
        # one write to a cached array would corrupt every later solve on
        # the mesh, so the mesh, its integrals, its patterns and their
        # trees hold read-only arrays only
        mesh = generate_mesh(4, 3, 0.4, 0.3)
        design = make_uniform_design(mesh, [0.6, 0.5])
        a, t = assemble_flow(mesh, design, FLOW)
        solve_pressure(a, t, mesh, {"top": 1e5, "bottom": 0.0})
        k = assemble_stiffness(mesh, design, MATS)
        bottom = mesh.boundary_node_sets["bottom"]
        solve_displacements(k, np.ones(k.shape[0]), mesh,
                            np.concatenate([2 * bottom, 2 * bottom + 1]))
        data = mesh_integrals(mesh)
        arrays = list(held_arrays(mesh))
        for cached in (mesh.boundary_node_sets["top"], data.udofs,
                       data.diffusion, data.mass, *data.node_order,
                       data.stiffness_pattern.tree.gather):
            assert any(arr is cached for arr in arrays)
        writable = [arr.shape for arr in arrays if arr.flags.writeable]
        assert writable == []

    def test_mesh_holds_only_the_patterns_of_a_and_k(self):
        # T is applied from its element template and both patterns hold the
        # one node order, so after an analysis the mesh holds no third
        # pattern and no copy of the order: 3,397,636 bytes on this mesh,
        # against 4,410,392 with T stored as CSR and the order copied
        cfg = load_config("piston-3mat")
        cfg.nex, cfg.ney = 45, 30
        cfg = cfg.validate()
        mesh, filt, mats, flow, fixed = build_problem(cfg)
        design = make_design(initial_design(cfg, mesh), filt, mesh, mats)
        analyze(design, mesh, mats, flow, fixed, cfg.pressure_bc)
        data = mesh_integrals(mesh)
        for pattern in (data.flow_pattern, data.stiffness_pattern):
            assert pattern.node_order is data.node_order
        bases = {}
        for arr in held_arrays(mesh):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            bases[id(arr)] = arr
        assert sum(arr.nbytes for arr in bases.values()) <= 1.05 * 3_397_636

    def test_matrix_of_another_mesh_rejected(self):
        mesh = generate_mesh(4, 3, 0.4, 0.3)
        other = generate_mesh(4, 3, 0.4, 0.3)
        design = make_uniform_design(mesh, [0.6, 0.5])
        k = assemble_stiffness(other, design, MATS)
        with pytest.raises(InvalidArgumentError):
            solve_displacements(k, np.zeros(k.shape[0]), mesh,
                                np.arange(6))
        a, t = assemble_flow(other, design, FLOW)
        with pytest.raises(InvalidArgumentError):
            solve_pressure(a, t, mesh, {"top": 1e5})
        with pytest.raises(InvalidArgumentError):
            mesh_integrals(mesh).stiffness_pattern.solve(k, 1e-9,
                                                         np.arange(6))


def held_arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through the attributes of
    presstopo objects, dicts, lists, tuples and sparse matrices."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if sp.issparse(obj):
        children = (obj.data, obj.indices, obj.indptr)
    elif isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif type(obj).__module__.startswith("presstopo"):
        children = vars(obj).values()
    else:
        return
    for child in children:
        yield from held_arrays(child, seen)


class SpyFactor:
    """Replaces ``_element_data.Cholesky``, the factor both solves make, and
    records the dtype of every factorization.  With ``nan32`` the float32
    factors solve to NaN; with ``scale64`` the float64 factors' solutions
    are scaled by it.  ``factors`` holds every factor it returned."""

    def __init__(self, monkeypatch, nan32=False, scale64=None):
        self.calls, self.factors = [], []
        self._real = _element_data.Cholesky
        self.nan32, self.scale64 = nan32, scale64
        monkeypatch.setattr(_element_data, "Cholesky", self)

    def __call__(self, tree, data, fixed, dtype):
        self.calls.append(dtype)
        factor = self._real(tree, data, fixed, dtype)
        if dtype == np.float32 and self.nan32:
            factor = NaNFactor(factor)
        elif dtype == np.float64 and self.scale64 is not None:
            factor = ScaledFactor(factor, self.scale64)
        self.factors.append(factor)
        return factor


class NaNFactor:
    def __init__(self, factor):
        self.nnz = factor.nnz

    def solve(self, b):
        return np.full(b.shape, np.nan, dtype=b.dtype)


class ScaledFactor:
    """Scales the solutions of ``factor`` and counts its solves."""

    def __init__(self, factor, scale):
        self._factor, self.scale = factor, scale
        self.nnz = factor.nnz
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return self.scale * self._factor.solve(b)


def float64_solve(matrix, free, rhs):
    """Solution on ``free`` by a float64 SuperLU factor of the sorted block."""
    m_ff = matrix[free][:, free].tocsc()
    return spla.splu(m_ff, permc_spec="MMD_AT_PLUS_A").solve(rhs)


def relative_error(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


class TestRefinedSolve:
    """Float32 factors refined in float64, in a nested-dissection order
    built once per mesh, with a counted float64 fallback."""

    def _problem(self, seed, nex=6, ney=5):
        mesh = generate_mesh(nex, ney, 0.1 * nex, 0.1 * ney)
        design = make_uniform_design(mesh, [0.5, 0.5])
        rng = np.random.default_rng(seed)
        design.filtered = rng.uniform(0.3, 1.0, design.filtered.shape)
        bottom = mesh.boundary_node_sets["bottom"]
        fixed = np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))
        return mesh, design, fixed, rng

    def test_order_built_once_per_mesh(self, monkeypatch):
        built = []
        order = _element_data.nested_dissection

        def counted(*args):
            built.append(args)
            return order(*args)

        monkeypatch.setattr(_element_data, "nested_dissection", counted)
        trees = []
        tree = _element_data.EliminationTree

        def counted_tree(*args):
            trees.append(args)
            return tree(*args)

        monkeypatch.setattr(_element_data, "EliminationTree", counted_tree)
        spy = SpyFactor(monkeypatch)
        mesh, design, fixed, rng = self._problem(0)
        n = 4
        for _ in range(n):
            design.filtered = rng.uniform(0.3, 1.0, design.filtered.shape)
            solve_pressure(*assemble_flow(mesh, design, FLOW), mesh,
                           {"top": 1e5, "bottom": 0.0})
            k = assemble_stiffness(mesh, design, MATS)
            solve_displacements(k, rng.normal(size=k.shape[0]), mesh, fixed)
        assert spy.calls == [np.float32] * (2 * n)
        assert len(built) == 1
        assert len(trees) == 2  # one per pattern

    def test_fill_at_most_minimum_degree(self):
        # the desk arch (arch-2mat on 61x30) and the desk piston
        # (piston-3mat on 45x30), at the uniform start
        for name, nex, ney in (("arch-2mat", 61, 30), ("piston-3mat", 45, 30)):
            cfg = load_config(name)
            cfg.nex, cfg.ney = nex, ney
            mesh, filt, mats, flow, fixed = build_problem(cfg.validate())
            design = make_design(initial_design(cfg, mesh), filt, mesh, mats)
            data = mesh_integrals(mesh)
            dirichlet = np.concatenate([mesh.boundary_node_sets[edge]
                                        for edge in cfg.pressure_bc])
            systems = [
                (data.stiffness_pattern, fixed,
                 assemble_stiffness(mesh, design, mats)),
                (data.flow_pattern, dirichlet,
                 assemble_flow(mesh, design, flow)[0]),
            ]
            for pattern, fixed, matrix in systems:
                free = np.setdiff1d(np.arange(matrix.shape[0]), fixed)
                rows = free[np.argsort(dof_rank(data, pattern)[free])]
                m_ff = matrix[rows][:, rows].tocsc().astype(np.float32)
                nested = spla.splu(m_ff, permc_spec="NATURAL").nnz
                assert nested <= spla.splu(m_ff,
                                           permc_spec="MMD_AT_PLUS_A").nnz

    def test_agrees_with_float64_solve(self):
        mesh, design, fixed, rng = self._problem(1, nex=10, ney=8)
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), fixed)
        # the first solve fixes the ordering, the second uses it
        for _ in range(2):
            k = assemble_stiffness(mesh, design, MATS)
            f = rng.normal(size=k.shape[0])
            u, _, _ = solve_displacements(k, f, mesh, fixed)
            assert relative_error(u[free], float64_solve(k, free, f[free])) \
                <= 1e-12

            a, t = assemble_flow(mesh, design, FLOW)
            state = solve_pressure(a, t, mesh, {"top": 1e5, "bottom": 0.0})
            nodes = np.flatnonzero(~state.factor.fixed)
            dirichlet = np.flatnonzero(state.factor.fixed)
            rhs = -(a[nodes][:, dirichlet] @ state.p[dirichlet])
            assert relative_error(state.p[nodes],
                                  float64_solve(a, nodes, rhs)) <= 1e-12
            g = rng.normal(size=a.shape[0])
            lam = state.factor(g)
            assert np.all(lam[dirichlet] == 0.0)
            assert relative_error(lam[nodes],
                                  float64_solve(a, nodes, g[nodes])) <= 1e-12

    def test_stall_engages_float64_fallback(self, monkeypatch):
        mesh, design, fixed, rng = self._problem(2)
        k = assemble_stiffness(mesh, design, MATS)
        pattern = mesh_integrals(mesh).stiffness_pattern
        f = rng.normal(size=k.shape[0])
        x, factor = pattern.solve(k, 1e-9, fixed, f)
        assert factor.fallbacks == 0
        # the first float32 solution misses the gate; with no refinement
        # step allowed, the solve falls back to one float64 factor
        free = ~factor.fixed
        m_ff, rhs = k[free][:, free], f[free]
        x32 = _element_data.Cholesky(pattern.tree, k.data, factor.fixed,
                                     np.float32).solve(
            np.where(free, f, 0.0).astype(np.float32))
        assert np.linalg.norm(rhs - m_ff @ x32[free]) \
            > 1e-9 * np.linalg.norm(rhs)
        monkeypatch.setattr(_element_data, "_MAX_STEPS", 0)
        spy = SpyFactor(monkeypatch)
        y, stalled = pattern.solve(k, 1e-9, fixed, f)
        assert stalled.fallbacks == 1
        assert spy.calls == [np.float32, np.float64]
        residual = np.linalg.norm(rhs - m_ff @ y[free])
        assert residual <= 1e-9 * np.linalg.norm(rhs)
        assert stalled.residual <= 1e-9
        assert stalled.residual == pytest.approx(
            residual / np.linalg.norm(rhs), rel=1e-6)
        assert relative_error(y, x) <= 1e-12

    def test_fallback_missing_gate_raises(self, monkeypatch):
        # the float64 factor's solution is off by a relative 1e-6, so the
        # residual after the fallback misses the 1e-9 gate
        mesh, design, fixed, rng = self._problem(2)
        k = assemble_stiffness(mesh, design, MATS)
        f = rng.normal(size=k.shape[0])
        monkeypatch.setattr(_element_data, "_MAX_STEPS", 0)
        spy = SpyFactor(monkeypatch, scale64=1.0 + 1e-6)
        with pytest.raises(SolverError, match="displacement solve residual"):
            solve_displacements(k, f, mesh, fixed)
        assert spy.calls == [np.float32, np.float64]

    def test_adjoint_missing_gate_raises(self, monkeypatch):
        # the state solve meets its gate; then the fallback is spent on a
        # float64 factor whose solutions are off by a relative 1e-6, so the
        # flow adjoint's residual misses the 1e-10 gate
        mesh, design, fixed, _ = self._problem(2)
        state = analyze(design, mesh, MATS, FLOW, fixed,
                        {"top": 1e5, "bottom": 0.0})
        factor = state.pressure.factor
        assert factor.fallbacks == 0 and factor.residual <= factor.tol
        spy = SpyFactor(monkeypatch, scale64=1.0 + 1e-6)
        monkeypatch.setattr(_element_data, "_MAX_STEPS", 0)
        factor._factor64()
        filt = build_filter(mesh, 1.5 * mesh.element_width)
        with pytest.raises(SolverError, match="flow adjoint solve residual"):
            compliance_sensitivity(mesh, MATS, FLOW, state, filt)
        assert spy.calls == [np.float64] and factor.fallbacks == 1

    def test_steps_count_the_float64_loop(self, monkeypatch):
        # an unreachable gate forces the fallback; steps and residual then
        # come from the float64 factor's own refinement loop, on that call
        # and on the next one, which reuses the factor as the adjoint does
        mesh, design, fixed, rng = self._problem(2)
        k = assemble_stiffness(mesh, design, MATS)
        pattern = mesh_integrals(mesh).stiffness_pattern
        spy = SpyFactor(monkeypatch, scale64=1.0)  # counts float64 solves
        f = rng.normal(size=k.shape[0])
        x, factor = pattern.solve(k, 0.0, fixed, f)
        assert spy.calls == [np.float32, np.float64]
        assert factor.fallbacks == 1
        float64 = spy.factors[1]

        def check(b, x, solves):
            # one solve of b, then one per refinement step
            assert factor.steps == solves - 1 >= 1
            rhs = np.where(factor.fixed, 0.0, b)
            r = rhs - k @ x
            r[factor.fixed] = 0.0
            assert factor.residual == pytest.approx(
                np.linalg.norm(r) / np.linalg.norm(rhs), rel=1e-12)

        check(f, x, float64.solves)
        g, before = rng.normal(size=k.shape[0]), float64.solves
        check(g, factor(g), float64.solves - before)
        assert spy.calls == [np.float32, np.float64]

    def test_refinement_corrects_float64_factor(self, monkeypatch):
        # the float32 factors solve to NaN, and the float64 factor's
        # solutions are off by a relative 1e-6: refining the fallback by
        # the same loop meets both gates
        mesh, design, fixed, rng = self._problem(2)
        k = assemble_stiffness(mesh, design, MATS)
        f = rng.normal(size=k.shape[0])
        spy = SpyFactor(monkeypatch, nan32=True, scale64=1.0 + 1e-6)
        u, _, _ = solve_displacements(k, f, mesh, fixed)
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        assert relative_error(u[free], float64_solve(k, free, f[free])) \
            <= 1e-12
        state = solve_pressure(*assemble_flow(mesh, design, FLOW), mesh,
                               {"top": 1e5, "bottom": 0.0})
        assert state.factor.fallbacks == 1
        assert state.factor.residual <= 1e-10
        assert spy.calls == [np.float32, np.float64] * 2
        assert 1 <= spy.factors[1].solves - 1 <= _element_data._MAX_STEPS

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_unfactored(self, monkeypatch, value):
        mesh, design, fixed, rng = self._problem(4, nex=5, ney=4)
        spy = SpyFactor(monkeypatch)
        a, t = assemble_flow(mesh, design, FLOW)
        for bc in ({"top": value, "bottom": 0.0}, {"top": 1e5, "left": value}):
            with pytest.raises(InvalidArgumentError, match="finite"):
                solve_pressure(a, t, mesh, bc)
        k = assemble_stiffness(mesh, design, MATS)
        f = rng.normal(size=k.shape[0])
        f[7] = value
        with pytest.raises(InvalidArgumentError, match="finite"):
            solve_displacements(k, f, mesh, fixed)
        assert spy.calls == []

    @pytest.mark.parametrize("shape_of", [lambda n: (1,), lambda n: (n - 1,),
                                          lambda n: (n, 1)],
                             ids=["one_entry", "short", "column"])
    def test_load_of_wrong_shape_rejected_unfactored(self, monkeypatch,
                                                     shape_of):
        # a one-entry load would broadcast over every DOF, and a short or
        # column one fail only after the factorization
        mesh, design, fixed, rng = self._problem(5, nex=5, ney=4)
        k = assemble_stiffness(mesh, design, MATS)
        n = k.shape[0]
        shape = shape_of(n)
        spy = SpyFactor(monkeypatch)
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"{shape} for a matrix of shape "
                                           f"{(n, n)}")):
            solve_displacements(k, rng.normal(size=shape), mesh, fixed)
        assert spy.calls == []

    def test_nan_residual_engages_fallback(self, monkeypatch):
        mesh, design, fixed, rng = self._problem(3)
        spy = SpyFactor(monkeypatch, nan32=True)
        k = assemble_stiffness(mesh, design, MATS)
        f = rng.normal(size=k.shape[0])
        u, _, _ = solve_displacements(k, f, mesh, fixed)
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        assert np.all(np.isfinite(u))
        assert spy.calls == [np.float32, np.float64]
        assert relative_error(u[free], float64_solve(k, free, f[free])) \
            <= 1e-12

        del spy.calls[:]
        state = solve_pressure(*assemble_flow(mesh, design, FLOW), mesh,
                               {"top": 1e5, "bottom": 0.0})
        assert state.factor.fallbacks == 1
        assert np.all(np.isfinite(state.p))
        assert np.all(np.isfinite(state.factor(f[:mesh.n_nodes])))
        # the adjoint reuses the float64 factor
        assert spy.calls == [np.float32, np.float64]

    def test_nnz_counts_the_factor_in_use(self, monkeypatch):
        mesh, design, fixed, rng = self._problem(2)
        k = assemble_stiffness(mesh, design, MATS)
        pattern = mesh_integrals(mesh).stiffness_pattern
        f = rng.normal(size=k.shape[0])
        _, solver = pattern.solve(k, 1e-9, fixed, f)
        factor = _element_data.Cholesky(pattern.tree, k.data, solver.fixed,
                                        np.float32)
        assert solver.nnz == factor.nnz == sum(
            inv.size + l21.size for _, _, inv, l21 in factor.batches)
        # every nonzero of L is stored: the factored matrix is K with its
        # supports as unit pivots, in the elimination order
        unit = k.toarray()
        unit[solver.fixed] = unit[:, solver.fixed] = 0.0
        unit[solver.fixed, solver.fixed] = 1.0
        order = np.argsort(dof_rank(mesh_integrals(mesh), pattern))
        dense = np.linalg.cholesky(unit[np.ix_(order, order)])
        assert solver.nnz >= np.count_nonzero(dense)
        monkeypatch.setattr(_element_data, "_MAX_STEPS", 0)
        _, stalled = pattern.solve(k, 1e-9, fixed, f)
        assert stalled.fallbacks == 1
        assert stalled.nnz == factor.nnz


class TestNearFactor:
    """A solve refined from the factor of a nearby matrix on the same tree
    factors nothing of its own, and keeps its gate and its fallback."""

    def _problem(self, seed):
        mesh, design, fixed, rng = TestRefinedSolve()._problem(seed)
        k = assemble_stiffness(mesh, design, MATS)
        pattern = mesh_integrals(mesh).stiffness_pattern
        f = rng.normal(size=k.shape[0])
        _, factor = pattern.solve(k, 1e-9, fixed, f)
        return mesh, design, fixed, rng, k, pattern, f, factor

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perturbed_matrix_meets_gate_unfactored(self, monkeypatch, seed):
        mesh, design, fixed, rng, k, pattern, f, near = self._problem(seed)
        # a finite-difference step on every filtered density
        design.filtered = design.filtered + rng.choice([-1e-6, 1e-6],
                                                       design.filtered.shape)
        k2 = assemble_stiffness(mesh, design, MATS)
        assert np.abs(k2.data - k.data).max() > 0
        spy = SpyFactor(monkeypatch)
        y, factor = pattern.solve(k2, 1e-9, fixed, f, near=near)
        assert spy.calls == []
        assert factor.fallbacks == 0 and factor.nnz == near.nnz
        assert factor.residual <= 1e-9
        free = ~factor.fixed
        rhs = f[free]
        assert factor.residual == pytest.approx(
            np.linalg.norm(rhs - k2[free][:, free] @ y[free])
            / np.linalg.norm(rhs), rel=1e-6)
        assert relative_error(y[free], float64_solve(k2, free, rhs)) <= 1e-12

    def test_far_factor_falls_back_once(self, monkeypatch):
        # refining M from the factor of 10 M shrinks the error by only 0.9 a
        # step, so the gate is missed and M is factored once in float64
        mesh, design, fixed, rng, k, pattern, f, _ = self._problem(2)
        ten = sp.csr_matrix((10.0 * k.data, k.indices, k.indptr),
                            shape=k.shape)
        _, far = pattern.solve(ten, 1e-9, fixed, f)
        spy = SpyFactor(monkeypatch)
        y, factor = pattern.solve(k, 1e-9, fixed, f, near=far)
        assert spy.calls == [np.float64]
        assert factor.fallbacks == 1 and factor.residual <= 1e-9
        free = ~factor.fixed
        assert relative_error(y[free], float64_solve(k, free, f[free])) \
            <= 1e-12
        assert far.fallbacks == 0  # near's own factor is untouched

    def test_near_of_other_tree_or_fixed_mask_rejected(self, monkeypatch):
        mesh, design, fixed, rng, k, pattern, f, near = self._problem(0)
        other_mesh, other_design, other_fixed, *_ = \
            TestRefinedSolve()._problem(0, nex=5, ney=5)
        other_k = assemble_stiffness(other_mesh, other_design, MATS)
        _, other_tree = mesh_integrals(other_mesh).stiffness_pattern.solve(
            other_k, 1e-9, other_fixed, rng.normal(size=other_k.shape[0]))
        _, other_mask = pattern.solve(k, 1e-9, fixed[1:], f)
        flow = solve_pressure(*assemble_flow(mesh, design, FLOW), mesh,
                              {"top": 1e5, "bottom": 0.0}).factor
        _, released = pattern.solve(k, 1e-9, fixed, f)
        released.release()
        spy = SpyFactor(monkeypatch)
        for bad, reason in ((other_tree, "another pattern"),
                            (other_mask, "other fixed"),
                            (flow, "another pattern"),
                            (released, "released")):
            with pytest.raises(InvalidArgumentError, match=reason):
                pattern.solve(k, 1e-9, fixed, f, near=bad)
            with pytest.raises(InvalidArgumentError, match=reason):
                solve_displacements(k, f, mesh, fixed, near=bad)
        assert spy.calls == []


# a mesh within one leaf front, a few leaf fronts, a thin strip, and one
# with separators on several levels
FACTOR_MESHES = ((1, 1), (2, 3), (7, 5), (33, 4), (20, 17))


@st.composite
def factor_problems(draw):
    nex, ney = draw(st.sampled_from(FACTOR_MESHES))
    mesh = generate_mesh(nex, ney, 0.1 * nex, 0.1 * ney)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = make_uniform_design(mesh, [0.5, 0.5])
    design.filtered = rng.uniform(0.3, 1.0, design.filtered.shape)
    # two whole nodes hold every rigid-body mode; single DOFs join them;
    # the fixed indices come unsorted
    nodes = rng.choice(mesh.n_nodes, replace=False,
                       size=draw(st.integers(2, mesh.n_nodes - 1)))
    dofs = rng.choice(2 * mesh.n_nodes, size=draw(st.integers(0, 6)))
    fixed = rng.permutation(np.union1d(
        np.concatenate([2 * nodes, 2 * nodes + 1]), dofs))
    edges = draw(st.lists(st.sampled_from(EDGES), min_size=1, max_size=4,
                          unique=True))
    return mesh, design, fixed, edges, rng


@st.composite
def cut_problems(draw):
    """A small arch- or piston-aspect mesh, a random design, and prescribed
    nodes: none, one, or whole edges."""
    lx, ly = draw(st.sampled_from(((0.2, 0.1), (0.12, 0.04))))
    nex, ney = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    mesh = generate_mesh(nex, ney, lx * nex / 12, ly * ney / 8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = make_uniform_design(mesh, [0.5, 0.5])
    design.filtered = rng.uniform(0.0, 1.0, design.filtered.shape)
    kind = draw(st.sampled_from(("empty", "one", "edges")))
    if kind == "empty":
        nodes = np.zeros(0, dtype=np.int64)
    elif kind == "one":
        nodes = rng.integers(mesh.n_nodes, size=1)
    else:
        edges = draw(st.lists(st.sampled_from(EDGES), min_size=1,
                              max_size=4, unique=True))
        nodes = np.unique(np.concatenate([mesh.boundary_node_sets[edge]
                                          for edge in edges]))
    return mesh, design, nodes, rng


class TestCholesky:
    """The multifrontal factor on the nested-dissection fronts."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cut_problems())
    def test_cut_equals_explicit_unit_pivots(self, problem):
        # factoring M with prescribed unknowns gives, bit for bit, the factor
        # of M with their rows and columns zeroed and a unit diagonal
        mesh, design, nodes, rng = problem
        data = mesh_integrals(mesh)
        # each DOF of a prescribed node is prescribed, or one of the two;
        # one unknown is one DOF
        dofs = np.concatenate([2 * nodes, 2 * nodes + 1])
        if nodes.size == 1 or rng.random() < 0.5:
            dofs = 2 * nodes + rng.integers(2, size=nodes.size)
        for pattern, matrix, fixed in (
                (data.stiffness_pattern, assemble_stiffness(mesh, design,
                                                            MATS), dofs),
                (data.flow_pattern, assemble_flow(mesh, design, FLOW)[0],
                 nodes)):
            n = pattern.shape[0]
            rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
            cols = pattern.indices
            # a shifted diagonal makes M positive definite with no unknown
            # prescribed
            values = matrix.data.copy()
            values[rows == cols] += 1e-2 * matrix.diagonal().mean()
            mask = np.zeros(n, dtype=bool)
            mask[fixed] = True
            unit = np.where(mask[rows] | mask[cols], 0.0, values)
            unit[mask[rows] & (rows == cols)] = 1.0
            for dtype in (np.float32, np.float64):
                cut = _element_data.Cholesky(pattern.tree, values, mask,
                                             dtype)
                explicit = _element_data.Cholesky(
                    pattern.tree, unit, np.zeros(n, dtype=bool), dtype)
                assert cut.nnz == explicit.nnz
                for got, want in zip(cut.batches, explicit.batches,
                                     strict=True):
                    for a, b in zip(got, want, strict=True):
                        assert a.dtype == b.dtype
                        assert np.array_equal(a, b)

    def test_alike_fronts_share_maps_within_budget(self):
        # equal placements of a child's update, and equal layouts of a
        # front's entries, are one object each; the arrays reachable from
        # the 45x30 piston's mesh held 4,665,272 bytes when it also kept an
        # int64 node pattern, a column per tree entry and a map per front
        mesh = generate_mesh(45, 30, 0.12, 0.04)
        data = mesh_integrals(mesh)
        for pattern in (data.flow_pattern, data.stiffness_pattern):
            placements, layouts, n_adds = {}, {}, 0
            for p, u, _, dst, adds, *_ in pattern.tree.fronts:
                assert not dst.flags.writeable
                layouts.setdefault((p, u, dst.tobytes()), set()).add(id(dst))
                for _, slices in adds:
                    assert isinstance(slices, tuple)
                    key = p, tuple((block, *(i for s in ranges
                                             for i in (s.start, s.stop)))
                                   for block, *ranges in slices)
                    placements.setdefault(key, set()).add(id(slices))
                    n_adds += 1
            assert all(len(ids) == 1 for ids in layouts.values())
            assert all(len(ids) == 1 for ids in placements.values())
            assert len(layouts) < len(pattern.tree.fronts)
            assert len(placements) < n_adds
        bases = {}
        for arr in held_arrays(mesh):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            bases[id(arr)] = arr.nbytes
        assert sum(bases.values()) <= 1.05 * 3_533_284

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(factor_problems())
    def test_solves_agree_with_dense(self, problem):
        self.check_solves(problem)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(factor_problems())
    def test_solves_agree_with_dense_one_batch_per_shape(self, problem):
        # with no padding allowed, every batch holds one front shape, so a
        # tree of more than one front has a height of several batches, whose
        # updates the forward sweep scatters into shared unknowns in turn
        with mock.patch.object(_element_data, "_BATCH_PAD", 0):
            trees = self.check_solves(problem)
        for tree in trees:
            height, batch_height = [], {}
            for p, u, _, _, adds, batch, i in tree.fronts:
                piv, upd = tree.batches[batch]
                assert (piv.shape[1], upd.shape[1]) == (p, u)
                height.append(max((height[c] + 1 for c, _ in adds),
                                  default=0))
                assert batch_height.setdefault(batch, height[-1]) == height[-1]
            heights = [batch_height[b] for b in range(len(tree.batches))]
            assert heights == sorted(heights)
            if len(tree.fronts) > 1:
                assert max(np.bincount(heights)) > 1

    @pytest.mark.parametrize("nex, ney", FACTOR_MESHES + ((45, 30), (61, 30)))
    def test_each_update_adds_in_at_most_four_runs(self, nex, ney):
        # each separator is ranked along its cut, so a child's struct takes
        # at most four runs of its parent's front: ten pairs of slices
        data = mesh_integrals(generate_mesh(nex, ney, 0.1 * nex, 0.1 * ney))
        for pattern in (data.flow_pattern, data.stiffness_pattern):
            assert max((len(slices) for front in pattern.tree.fronts
                        for _, slices in front[4]), default=0) <= 10

    def test_index_arrays_are_int32_and_read_only(self):
        data = mesh_integrals(generate_mesh(7, 5, 0.7, 0.5))
        for pattern in (data.flow_pattern, data.stiffness_pattern):
            tree = pattern.tree
            for arr in (pattern.slot, tree.gather, tree.rows, tree.columns,
                        *(front[3] for front in tree.fronts)):
                assert arr.dtype == np.int32
                assert not arr.flags.writeable

    def test_paper_scale_factor_stores_its_fronts(self):
        # level padding stored 28,287,416 entries for K and 7,071,854 for A
        # on the piston's 180x120 mesh; L21 and the square inverse pivot
        # blocks of the fronts need 16,180,440 and 4,045,110
        cfg = load_config("piston-3mat")
        mesh, filt, materials, flow, fixed = build_problem(cfg)
        assert (mesh.nex, mesh.ney) == (180, 120)
        design = make_design(initial_design(cfg, mesh), filt, mesh, materials)
        data = mesh_integrals(mesh)
        a = assemble_flow(mesh, design, flow)[0]
        k = assemble_stiffness(mesh, design, materials)
        dirichlet = np.concatenate([mesh.boundary_node_sets[edge]
                                    for edge in cfg.pressure_bc])
        for pattern, matrix, prescribed, need, bound in (
                (data.stiffness_pattern, k, fixed, 16_180_440,
                 0.70 * 28_287_416),
                (data.flow_pattern, a, dirichlet, 4_045_110,
                 0.75 * 7_071_854)):
            tree = pattern.tree
            assert sum(p * (p + u) for p, u, *_ in tree.fronts) == need
            mask = np.zeros(matrix.shape[0], dtype=bool)
            mask[prescribed] = True
            factor = _element_data.Cholesky(tree, matrix.data, mask,
                                            np.float32)
            assert need <= factor.nnz <= bound

    def check_solves(self, problem):
        """The float64 factor, the refined solve and a Dirichlet solve of K
        and A against dense solves; returns the trees."""
        mesh, design, fixed, edges, rng = problem
        data = mesh_integrals(mesh)
        dirichlet = rng.permutation(np.concatenate(
            [mesh.boundary_node_sets[edge] for edge in edges]))
        systems = [
            (data.stiffness_pattern, fixed,
             assemble_stiffness(mesh, design, MATS), 1e-9),
            (data.flow_pattern, dirichlet,
             assemble_flow(mesh, design, FLOW)[0], 1e-10),
        ]
        for pattern, fixed, matrix, gate in systems:
            mask = np.zeros(matrix.shape[0], dtype=bool)
            mask[fixed] = True
            free = np.flatnonzero(~mask)
            if not free.size:
                continue
            dense = matrix.toarray()
            m_ff = dense[np.ix_(free, free)]
            bound = max(1e-12, 1e-12 * np.linalg.cond(m_ff) / 1e4)
            b = rng.normal(size=matrix.shape[0])
            x = _element_data.Cholesky(pattern.tree, matrix.data, mask,
                                       np.float64).solve(np.where(mask, 0, b))
            assert np.all(x[mask] == 0.0)
            # the forward error of any stable solve grows with the condition
            # number: on two supported nodes of a 20x17 mesh (cond 1.5e5)
            # scipy's own LU and Cholesky solves differ by 1.4e-13
            want = scipy.linalg.solve(m_ff, b[free], assume_a="pos")
            assert relative_error(x[free], want) <= bound
            solver = _element_data.MixedCholesky(matrix, mask, gate,
                                                 pattern.tree)
            refined = solver(b)
            assert solver.fallbacks == 0
            assert solver.residual <= gate
            assert np.linalg.norm(b[free] - m_ff @ refined[free]) \
                <= gate * np.linalg.norm(b[free])
            # a Dirichlet solve: nonzero values, paired with their unsorted
            # indices, and the reduced system of the dense matrix
            v = rng.normal(size=fixed.size)
            x, solver = pattern.solve(matrix, gate, fixed, b, v)
            assert np.array_equal(x[fixed], v)
            want = scipy.linalg.solve(
                m_ff, b[free] - dense[np.ix_(free, fixed)] @ v,
                assume_a="pos")
            assert relative_error(x[free], want) <= bound
            # the adjoint of the pressure reuses the solver: zero on the
            # Dirichlet nodes
            assert np.all(solver(b)[fixed] == 0.0)
        return [data.stiffness_pattern.tree, data.flow_pattern.tree]

    def test_indefinite_stiffness_raises(self, monkeypatch):
        mesh = generate_mesh(12, 9, 1.2, 0.9)
        data = mesh_integrals(mesh)
        modulus = np.full(mesh.n_elements, 1e8)
        modulus[[20, 50, 51]] = -1e11
        k = data.stiffness_pattern.assemble(
            modulus[:, None, None] * data.stiffness(MATS.nu, MATS.thickness))
        bottom = mesh.boundary_node_sets["bottom"]
        fixed = np.concatenate([2 * bottom, 2 * bottom + 1])
        spy = SpyFactor(monkeypatch)
        with pytest.raises(SingularSystemError, match="singular"):
            solve_displacements(k, np.ones(k.shape[0]), mesh, fixed)
        assert spy.calls == [np.float32, np.float64]

    def test_singular_flow_names_disconnected_nodes(self, monkeypatch):
        mesh = generate_mesh(12, 9, 1.2, 0.9)
        data = mesh_integrals(mesh)
        column, row = np.divmod(np.arange(mesh.n_elements), mesh.ney)
        region = (3 <= column) & (column < 7) & (2 <= row) & (row < 6)
        coefficient = np.where(region, 0.0, 1.0)
        a = data.flow_pattern.assemble(
            coefficient[:, None, None] * (data.diffusion + data.mass))
        # the nodes whose every element is in the region have empty rows
        outside = np.zeros(mesh.n_nodes, dtype=bool)
        outside[mesh.elements[~region]] = True
        isolated = np.flatnonzero(~outside)
        assert isolated.size
        spy = SpyFactor(monkeypatch)
        with pytest.raises(SolverError, match=re.escape(
                f"disconnected nodes: {isolated.tolist()[:20]}")):
            solve_pressure(a, data.load_transform(MATS.thickness), mesh,
                           {"top": 1e5, "bottom": 0.0})
        assert spy.calls == [np.float32, np.float64]
