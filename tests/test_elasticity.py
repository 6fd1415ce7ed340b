from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import (
    FlowParams,
    GeometryError,
    InvalidArgumentError,
    MaterialSet,
    SingularSystemError,
    assemble_flow,
    assemble_stiffness,
    element_stiffness,
    generate_mesh,
    penetration_drainage,
    solve_displacements,
)
from presstopo.driver import analyze

from presstopo._element_data import mesh_integrals

from conftest import make_uniform_design, regular_hexagon, shipped_shape_mesh


def domain_boundary_nodes(mesh):
    count = Counter()
    for el in mesh.elements:
        for a in range(6):
            count[tuple(sorted((el[a], el[(a + 1) % 6])))] += 1
    return np.unique([n for e, c in count.items() if c == 1 for n in e])


class TestElementStiffness:
    def test_symmetric(self):
        k = element_stiffness(regular_hexagon(), 2.1e7, 0.4, 1e-3)
        assert np.abs(k - k.T).max() < 1e-12 * np.abs(k).max()

    def test_exactly_three_rigid_modes(self):
        k = element_stiffness(regular_hexagon(), 1.0, 0.3, 1.0)
        w = np.linalg.eigvalsh(k)
        assert (np.abs(w) < 1e-9 * w.max()).sum() == 3

    def test_translation_nullspace(self):
        k = element_stiffness(regular_hexagon(), 5e6, 0.4, 1e-3)
        ux = np.zeros(12)
        ux[0::2] = 1.0
        assert np.abs(k @ ux).max() < 1e-9 * np.abs(k).max()

    def test_rotation_nullspace(self):
        hexv = regular_hexagon()
        k = element_stiffness(hexv, 5e6, 0.4, 1e-3)
        rot = np.zeros(12)
        rot[0::2] = -hexv[:, 1]
        rot[1::2] = hexv[:, 0]
        assert np.abs(k @ rot).max() < 1e-9 * np.abs(k).max()

    def test_linearity_in_modulus(self):
        hexv = regular_hexagon()
        k1 = element_stiffness(hexv, 1.0, 0.3, 1.0)
        k2 = element_stiffness(hexv, 2.0, 0.3, 1.0)
        assert np.array_equal(k2, 2.0 * k1)

    def test_uniaxial_strain_energy(self):
        hexv = regular_hexagon()
        thickness = 1e-3
        k = element_stiffness(hexv, 1.0, 0.0, thickness)
        eps0 = 1e-3
        u = np.zeros(12)
        u[0::2] = eps0 * hexv[:, 0]
        area = 3 * np.sqrt(3) / 2
        energy = 0.5 * u @ k @ u
        assert energy == pytest.approx(0.5 * eps0**2 * area * thickness,
                                       rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgumentError):
            element_stiffness(regular_hexagon(), -1.0, 0.3, 1.0)
        with pytest.raises(GeometryError):
            element_stiffness(np.zeros((6, 2)), 1.0, 0.3, 1.0)


class TestAssembleStiffness:
    mats = MaterialSet(e_moduli=(40e6, 100e6), nu=0.4, thickness=1e-3)

    def test_void_design_still_spd(self, mesh_5x4):
        design = make_uniform_design(mesh_5x4, [0.0, 0.0])
        k = assemble_stiffness(mesh_5x4, design, self.mats)
        bottom = mesh_5x4.boundary_node_sets["bottom"]
        fixed = np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        np.linalg.cholesky(k[free][:, free].toarray())

    def test_uniform_solid_equals_constant_modulus(self, mesh_5x4):
        design = make_uniform_design(mesh_5x4, [1.0, 0.0])
        k = assemble_stiffness(mesh_5x4, design, self.mats).toarray()
        oracle = np.zeros_like(k)
        for e in range(mesh_5x4.n_elements):
            ke = element_stiffness(mesh_5x4.element_vertices(e), 40e6,
                                   0.4, 1e-3)
            dofs = np.empty(12, dtype=int)
            dofs[0::2] = 2 * mesh_5x4.elements[e]
            dofs[1::2] = 2 * mesh_5x4.elements[e] + 1
            oracle[np.ix_(dofs, dofs)] += ke
        assert np.abs(k - oracle).max() < 1e-9 * np.abs(oracle).max()

    def test_assembled_matrix_symmetric(self, mesh_5x4):
        rng = np.random.default_rng(5)
        design = make_uniform_design(mesh_5x4, [0.5, 0.5])
        design.filtered = rng.uniform(0.1, 0.9, design.filtered.shape)
        k = assemble_stiffness(mesh_5x4, design, self.mats)
        diff = (k - k.T).tocoo()
        scale = np.abs(k.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-12 * scale

    def test_stiffness_template_built_once(self, mesh_5x4):
        data = mesh_integrals(mesh_5x4)
        k0 = data.stiffness(0.4, 1e-3)
        assert data.stiffness(0.4, 1e-3) is k0
        assert not k0.flags.writeable

    def test_energy_matches_elementwise_sum(self, mesh_5x4):
        rng = np.random.default_rng(0)
        design = make_uniform_design(mesh_5x4, [0.5, 0.5])
        design.filtered = rng.uniform(0.1, 0.9, design.filtered.shape)
        k = assemble_stiffness(mesh_5x4, design, self.mats)
        u = rng.normal(size=k.shape[0])
        total = u @ (k @ u)
        from presstopo.fields import interpolate_modulus

        e_elem = interpolate_modulus(design.filtered, self.mats)
        by_element = 0.0
        for e in range(mesh_5x4.n_elements):
            ke = element_stiffness(mesh_5x4.element_vertices(e), e_elem[e],
                                   0.4, 1e-3)
            dofs = np.empty(12, dtype=int)
            dofs[0::2] = 2 * mesh_5x4.elements[e]
            dofs[1::2] = 2 * mesh_5x4.elements[e] + 1
            by_element += u[dofs] @ ke @ u[dofs]
        assert total == pytest.approx(by_element, rel=1e-12)


class TestSolveDisplacements:
    mats = MaterialSet(e_moduli=(40e6, 100e6), nu=0.4, thickness=1e-3)

    def _system(self, mesh, rho=(1.0, 0.0)):
        design = make_uniform_design(mesh, list(rho))
        k = assemble_stiffness(mesh, design, self.mats)
        bottom = mesh.boundary_node_sets["bottom"]
        fixed = np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))
        return k, fixed

    def test_zero_force_zero_displacement(self, mesh_5x4):
        k, fixed = self._system(mesh_5x4)
        u, c, _ = solve_displacements(k, np.zeros(k.shape[0]), mesh_5x4, fixed)
        assert np.all(u == 0.0)
        assert c == 0.0

    def test_single_element_matches_dense_solve(self):
        mesh = generate_mesh(1, 1, 0.02, 0.02)
        design = make_uniform_design(mesh, [1.0, 0.0])
        k = assemble_stiffness(mesh, design, self.mats)
        bottom = mesh.boundary_node_sets["bottom"]
        fixed = np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))
        top = mesh.boundary_node_sets["top"][0]
        f = np.zeros(k.shape[0])
        f[2 * top + 1] = -1.0  # unit nodal load
        u, c, _ = solve_displacements(k, f, mesh, fixed)
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        dense = np.zeros(k.shape[0])
        dense[free] = np.linalg.solve(k[free][:, free].toarray(), f[free])
        assert np.abs(u - dense).max() < 1e-10 * np.abs(dense).max()
        assert c == pytest.approx(dense @ f, rel=1e-10)
        assert c >= 0.0
        assert c == pytest.approx(u @ (k @ u), rel=1e-9)

    def test_matches_dense_solve(self):
        mesh = generate_mesh(2, 2, 0.2, 0.2)
        k, fixed = self._system(mesh)
        rng = np.random.default_rng(1)
        f = rng.normal(size=k.shape[0])
        u, c, _ = solve_displacements(k, f, mesh, fixed)
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        dense = np.zeros(k.shape[0])
        dense[free] = np.linalg.solve(k[free][:, free].toarray(), f[free])
        assert np.abs(u - dense).max() < 1e-10 * np.abs(dense).max()
        assert c == pytest.approx(dense @ f, rel=1e-10)

    def test_doubling_modulus_halves_compliance(self, mesh_5x4):
        design = make_uniform_design(mesh_5x4, [1.0, 0.0])
        soft = MaterialSet(e_moduli=(40e6, 100e6), nu=0.4, thickness=1e-3)
        stiff = MaterialSet(e_moduli=(80e6, 200e6), nu=0.4, thickness=1e-3)
        bottom = mesh_5x4.boundary_node_sets["bottom"]
        fixed = np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))
        rng = np.random.default_rng(2)
        f = rng.normal(size=2 * mesh_5x4.n_nodes)
        _, c1, _ = solve_displacements(
            assemble_stiffness(mesh_5x4, design, soft), f, mesh_5x4, fixed)
        _, c2, _ = solve_displacements(
            assemble_stiffness(mesh_5x4, design, stiff), f, mesh_5x4, fixed)
        assert c2 == pytest.approx(0.5 * c1, rel=1e-9)

    def test_insufficient_constraints(self, mesh_5x4):
        k, _ = self._system(mesh_5x4)
        with pytest.raises(SingularSystemError):
            solve_displacements(k, np.zeros(k.shape[0]), mesh_5x4,
                                np.array([0, 1]))

    def test_fixed_values_follow_unsorted_dofs(self, mesh_5x4):
        k, _ = self._system(mesh_5x4)
        bottom = mesh_5x4.boundary_node_sets["bottom"]
        fixed = np.concatenate([2 * bottom, 2 * bottom + 1])
        values = np.arange(fixed.size, dtype=float)
        u, _, _ = solve_displacements(k, np.zeros(k.shape[0]), mesh_5x4, fixed,
                                   values)
        assert np.abs(u[fixed] - values).max() == 0.0

    def test_repeated_or_out_of_range_dof_rejected(self, mesh_5x4):
        k, fixed = self._system(mesh_5x4)
        for extra in (fixed[0], -1, k.shape[0]):
            with pytest.raises(InvalidArgumentError):
                solve_displacements(k, np.zeros(k.shape[0]), mesh_5x4,
                                    np.append(fixed, extra))

    def test_non_integer_dofs_rejected(self, mesh_5x4):
        # DOF 2.9 is not DOF 2, and a boolean mask is not a list of DOFs
        k, fixed = self._system(mesh_5x4)
        mask = np.zeros(k.shape[0], dtype=bool)
        mask[fixed] = True
        for dofs in (fixed + 0.9, mask):
            with pytest.raises(InvalidArgumentError, match="integers"):
                solve_displacements(k, np.zeros(k.shape[0]), mesh_5x4, dofs)

    def test_non_finite_load_or_value_rejected(self, mesh_5x4):
        k, fixed = self._system(mesh_5x4)
        f = np.zeros(k.shape[0])
        f[5] = np.nan
        with pytest.raises(InvalidArgumentError):
            solve_displacements(k, f, mesh_5x4, fixed)
        values = np.zeros(fixed.size)
        values[2] = np.inf
        with pytest.raises(InvalidArgumentError):
            solve_displacements(k, np.zeros(k.shape[0]), mesh_5x4, fixed,
                                values)

    def test_residual_relative_to_reduced_rhs(self, mesh_5x4):
        # K_fd v dwarfs the load: the residual is judged against the reduced
        # right-hand side F_f - K_fd v, not against F_f alone
        k, fixed = self._system(mesh_5x4, rho=(0.4, 0.6))
        rng = np.random.default_rng(5)
        values = rng.normal(size=fixed.size)
        f = 1e-9 * rng.normal(size=k.shape[0])
        u, _, _ = solve_displacements(k, f, mesh_5x4, fixed, values)
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        rhs = f[free] - k[free][:, fixed] @ values
        dense = np.linalg.solve(k[free][:, free].toarray(), rhs)
        assert np.abs(u[free] - dense).max() < 1e-10 * np.abs(dense).max()

    def test_rigid_mode_named_in_any_dof_order(self, mesh_5x4):
        # both DOFs of one bottom node and the x-DOFs of the others on the
        # same line leave the rotation about that line free
        k, _ = self._system(mesh_5x4)
        bottom = mesh_5x4.boundary_node_sets["bottom"]
        fixed = np.append(2 * bottom, 2 * bottom[0] + 1)
        fixed = np.random.default_rng(6).permutation(fixed)
        with pytest.raises(SingularSystemError, match="free: rotation$"):
            solve_displacements(k, np.zeros(k.shape[0]), mesh_5x4, fixed)

    def test_free_rigid_mode_rejected_for_any_load(self, mesh_5x4):
        # the y-DOFs of the bottom edge leave the x-translation free; a
        # vertical load has no component along it, so K_ff must be
        # recognised as singular from the supports themselves
        k, _ = self._system(mesh_5x4)
        f = np.zeros(k.shape[0])
        f[2 * mesh_5x4.boundary_node_sets["top"] + 1] = -1.0
        fixed = 2 * mesh_5x4.boundary_node_sets["bottom"] + 1
        with pytest.raises(SingularSystemError, match="free: x-translation$"):
            solve_displacements(k, f, mesh_5x4, fixed)

    def test_residual_tolerance(self, mesh_5x4):
        k, fixed = self._system(mesh_5x4, rho=(0.4, 0.6))
        rng = np.random.default_rng(3)
        f = rng.normal(size=k.shape[0])
        u, _, _ = solve_displacements(k, f, mesh_5x4, fixed)
        free = np.setdiff1d(np.arange(k.shape[0]), fixed)
        r = np.linalg.norm(k[free][:, free] @ u[free] - f[free])
        assert r / np.linalg.norm(f[free]) < 1e-9


class TestPatchTest:
    def test_linear_field_reproduced_at_interior_nodes(self):
        mesh = generate_mesh(5, 4, 1.0, 0.8)
        mats = MaterialSet(e_moduli=(1.0,), nu=0.3, thickness=1.0)
        design = make_uniform_design(mesh, [1.0], thickness=1.0)
        k = assemble_stiffness(mesh, design, mats)
        grad = np.array([[1e-3, 4e-4], [2e-4, -6e-4]])
        u_exact = (mesh.nodes @ grad.T).ravel()
        bnodes = domain_boundary_nodes(mesh)
        fixed = np.sort(np.concatenate([2 * bnodes, 2 * bnodes + 1]))
        u, _, _ = solve_displacements(k, np.zeros(k.shape[0]), mesh, fixed,
                                   u_exact[fixed])
        interior = np.setdiff1d(np.arange(k.shape[0]), fixed)
        rel = np.abs(u[interior] - u_exact[interior]).max()
        assert rel < 1e-8 * np.abs(u_exact).max()


class TestComplianceMonotonicity:
    def test_denser_topology_lowers_compliance(self):
        # design-independent load: compliance decreases when any element's
        # topology density increases
        mesh = generate_mesh(3, 3, 0.3, 0.3)
        mats = MaterialSet(e_moduli=(40e6, 100e6), nu=0.4, thickness=1e-3)
        bottom = mesh.boundary_node_sets["bottom"]
        fixed = np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))
        rng = np.random.default_rng(4)
        f = np.zeros(2 * mesh.n_nodes)
        top = mesh.boundary_node_sets["top"]
        f[2 * top + 1] = -1.0

        def compliance(filtered):
            design = make_uniform_design(mesh, [0.5, 0.5])
            design.filtered = filtered
            k = assemble_stiffness(mesh, design, mats)
            return solve_displacements(k, f, mesh, fixed)[1]

        base = rng.uniform(0.3, 0.7, size=(mesh.n_elements, 2))
        c0 = compliance(base)
        for e in range(mesh.n_elements):
            bumped = base.copy()
            bumped[e, 0] = min(1.0, bumped[e, 0] + 0.2)
            assert compliance(bumped) < c0


def shipped_shape_meshes():
    """Honeycombs of 1x1 up to 9x7 elements of the shipped piston or arch
    element shape, and a seed for the random draws on them."""
    return st.tuples(st.integers(1, 9), st.integers(1, 7),
                     st.sampled_from(("piston", "arch")),
                     st.integers(0, 2**32 - 1))


def bottom_supports(mesh):
    bottom = mesh.boundary_node_sets["bottom"]
    return np.sort(np.concatenate([2 * bottom, 2 * bottom + 1]))


class TestPhysicsOverShippedShapes:
    """The patch test, the null spaces of K and A and the energy identity
    over meshes of both shipped element shapes, from one element up."""

    mats = MaterialSet(e_moduli=(40e6, 100e6), nu=0.4, thickness=1e-3)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shipped_shape_meshes())
    def test_patch_test_with_random_linear_field(self, draw):
        nex, ney, shape, seed = draw
        mesh = shipped_shape_mesh(nex, ney, shape)
        rng = np.random.default_rng(seed)
        mats = MaterialSet(e_moduli=(rng.uniform(1e6, 1e9),),
                           nu=rng.uniform(0.0, 0.49), thickness=1e-3)
        k = assemble_stiffness(mesh, make_uniform_design(mesh, [1.0]), mats)
        # u = a + G x, with x from the mesh's centre in units of its size
        x = (mesh.nodes - mesh.nodes.mean(axis=0)) / max(mesh.Lx, mesh.Ly)
        u_exact = (rng.normal(size=2) + x @ rng.normal(size=(2, 2)).T).ravel()
        bnodes = domain_boundary_nodes(mesh)
        fixed = np.sort(np.concatenate([2 * bnodes, 2 * bnodes + 1]))
        interior = np.setdiff1d(np.arange(k.shape[0]), fixed)
        # the internal forces of a linear field vanish at interior nodes (a
        # mesh of one row or column has none); worst over these 40 draws:
        # 4.7e-16 of |K| |u|
        scale = abs(k).max() * np.abs(u_exact).max()
        assert np.abs((k @ u_exact)[interior]).max(initial=0.0) \
            <= 1e-13 * scale
        u, _, _ = solve_displacements(k, np.zeros(k.shape[0]), mesh, fixed,
                                   u_exact[fixed])
        # worst over these 40 draws: 1.9e-15 of max |u|
        assert np.abs(u - u_exact).max() <= 1e-12 * np.abs(u_exact).max()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shipped_shape_meshes())
    def test_null_spaces_of_k_and_a(self, draw):
        nex, ney, shape, seed = draw
        mesh = shipped_shape_mesh(nex, ney, shape)
        rng = np.random.default_rng(seed)
        design = make_uniform_design(mesh, [0.5, 0.5])
        design.filtered = rng.uniform(0.0, 1.0, design.filtered.shape)
        k = assemble_stiffness(mesh, design, self.mats).toarray()
        # the rigid modes: two translations and the rotation about the centre
        x = (mesh.nodes - mesh.nodes.mean(axis=0)) / max(mesh.Lx, mesh.Ly)
        rigid = np.zeros((k.shape[0], 3))
        rigid[0::2, 0] = rigid[1::2, 1] = 1.0
        rigid[0::2, 2], rigid[1::2, 2] = -x[:, 1], x[:, 0]
        # worst over these 40 draws: 1.3e-15 of |K| |r|
        assert np.abs(k @ rigid).max() \
            <= 1e-13 * np.abs(k).max() * np.abs(rigid).max()
        # K is positive definite on the complement of the rigid modes, so
        # they are its whole null space; over these 40 draws the smallest
        # eigenvalue there is at least 1.7e-7 of the largest, and A_ff's
        # at least 2.9e-8
        q = np.linalg.qr(rigid, mode="complete")[0][:, 3:]
        np.linalg.cholesky(q.T @ k @ q)
        free = np.setdiff1d(np.arange(k.shape[0]), bottom_supports(mesh))
        np.linalg.cholesky(k[np.ix_(free, free)])

        flow = FlowParams(d_solid=penetration_drainage(FlowParams(),
                                                       mesh.element_height))
        a = assemble_flow(mesh, design, flow)[0].toarray()
        dirichlet = np.concatenate([mesh.boundary_node_sets["top"],
                                    mesh.boundary_node_sets["bottom"]])
        free = np.setdiff1d(np.arange(a.shape[0]), dirichlet)
        np.linalg.cholesky(a[np.ix_(free, free)])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shipped_shape_meshes())
    def test_compliance_is_work_and_strain_energy(self, draw):
        nex, ney, shape, seed = draw
        mesh = shipped_shape_mesh(nex, ney, shape)
        rng = np.random.default_rng(seed)
        design = make_uniform_design(mesh, [0.5, 0.5])
        design.filtered = rng.uniform(0.0, 1.0, design.filtered.shape)
        flow = FlowParams(d_solid=penetration_drainage(FlowParams(),
                                                       mesh.element_height))
        fixed = bottom_supports(mesh)
        state = analyze(design, mesh, self.mats, flow, fixed,
                        {"top": 1e5, "bottom": 0.0})
        u, f = state.u, state.F
        assert state.compliance == u @ f > 0.0
        # u is zero on the supports, so u.K u - u.F = u_f.(K_ff u_f - F_f),
        # at most |u| |F_f| times the 1e-9 residual gate; worst over these
        # 40 draws: 2.6e-11 of c, and 1.5e-11 of |u| |F_f|
        f_free = np.linalg.norm(np.delete(f, fixed))
        assert abs(u @ (state.K @ u) - state.compliance) \
            <= 1e-9 * np.linalg.norm(u) * f_free
