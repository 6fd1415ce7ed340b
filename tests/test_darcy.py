from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import (
    FlowParams,
    IllPosedError,
    InvalidArgumentError,
    SolverError,
    assemble_flow,
    drainage_coefficient,
    flow_coefficient,
    generate_mesh,
    hex_quadrature,
    penetration_drainage,
    pressure_loads,
    smooth_heaviside,
    solve_pressure,
    wachspress_gradients,
    wachspress_shape,
)
from presstopo import _element_data

from conftest import make_uniform_design, shipped_shape_mesh

P_IN = 1e5
P_OUT = 0.0


def strip_mesh(n=30, width=0.01, height=0.3):
    return generate_mesh(1, n, width, height)


def solve_strip(mesh, rho1, params, bc=None):
    design = make_uniform_design(mesh, [rho1, 0.5])
    state = solve_pressure(*assemble_flow(mesh, design, params), mesh,
                           bc or {"top": P_IN, "bottom": P_OUT})
    return state


class TestSmoothHeaviside:
    def test_endpoints_exact(self):
        for beta in (1.0, 10.0, 25.0):
            assert smooth_heaviside(0.0, beta, 0.2) == 0.0
            assert smooth_heaviside(1.0, beta, 0.2) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        h = smooth_heaviside(0.2, 10.0, 0.2)
        oracle = np.tanh(2.0) / (np.tanh(2.0) + np.tanh(8.0))
        assert h == pytest.approx(oracle, rel=1e-14)
        assert h == pytest.approx(0.49085, abs=1e-5)

    def test_monotone(self):
        x = np.linspace(0, 1, 101)
        h = smooth_heaviside(x, 10.0, 0.2)
        assert np.all(np.diff(h) > 0)

    def test_zero_slope_disables_step(self):
        assert smooth_heaviside(0.7, 0.0, 0.2) == 0.0


class TestFlowCoefficients:
    params = FlowParams()

    def test_void_flows_fully(self):
        k, _ = flow_coefficient(0.0, self.params)
        assert k == pytest.approx(self.params.k_void)

    def test_solid_flow_is_contrast(self):
        k, _ = flow_coefficient(1.0, self.params)
        assert k == pytest.approx(self.params.k_solid, rel=1e-9)

    def test_hand_value(self):
        k, _ = flow_coefficient(0.2, self.params)
        oracle = self.params.k_void * (
            1.0 - (1.0 - self.params.epsilon)
            * np.tanh(2.0) / (np.tanh(2.0) + np.tanh(8.0)))
        assert k == pytest.approx(oracle, rel=1e-13)
        assert k == pytest.approx(0.50915 * self.params.k_void, abs=1e-5)

    def test_drainage_endpoints(self):
        params = FlowParams(d_solid=7.5)
        d, _ = drainage_coefficient(0.0, params)
        assert d == 0.0
        d, _ = drainage_coefficient(1.0, params)
        assert d == pytest.approx(7.5, rel=1e-15)

    def test_drainage_hand_value(self):
        params = FlowParams(d_solid=2.0)
        d, _ = drainage_coefficient(0.2, params)
        assert d == pytest.approx(2.0 * 0.49085, abs=2e-5)

    def test_derivatives_match_fd(self):
        params = FlowParams(d_solid=3.0)
        x = np.linspace(0.01, 0.99, 99)
        h = 1e-7
        for func in (flow_coefficient, drainage_coefficient):
            _, d = func(x, params)
            fplus, _ = func(x + h, params)
            fminus, _ = func(x - h, params)
            fd = (fplus - fminus) / (2 * h)
            assert (np.abs(fd - d) / np.abs(d).max()).max() < 1e-6

    def test_zero_slopes_freeze_design_dependence(self):
        params = FlowParams(beta_k=0.0, beta_d=0.0, d_solid=5.0)
        x = np.linspace(0, 1, 11)
        k, dk = flow_coefficient(x, params)
        d, dd = drainage_coefficient(x, params)
        assert np.all(k == params.k_void)
        assert np.all(dk == 0.0) and np.all(dd == 0.0) and np.all(d == 0.0)

    def test_matches_step_formula_bitwise(self):
        # the step and slope written out as two separate formulas
        x = np.linspace(0.0, 1.0, 201)
        beta, eta = 10.0, 0.2
        denom = np.tanh(beta * eta) + np.tanh(beta * (1.0 - eta))
        h = (np.tanh(beta * eta) + np.tanh(beta * (x - eta))) / denom
        dh = beta / (np.cosh(beta * (x - eta)) ** 2 * denom)
        params = FlowParams(d_solid=3.0)
        k, dk = flow_coefficient(x, params)
        assert np.array_equal(k, params.k_void
                              * (1.0 - (1.0 - params.epsilon) * h))
        assert np.array_equal(dk, -params.k_void * (1.0 - params.epsilon) * dh)
        d, dd = drainage_coefficient(x, params)
        assert np.array_equal(d, 3.0 * h)
        assert np.array_equal(dd, 3.0 * dh)
        assert np.array_equal(smooth_heaviside(x, beta, eta), h)

    @pytest.mark.parametrize("beta", [450.0, 900.0, 1000.0])
    def test_steep_step_has_finite_slope(self, beta):
        # cosh(beta (x - eta))^2 overflows near x = 1 for these slopes; a
        # RuntimeWarning is an error in this suite
        params = FlowParams(beta_k=beta, beta_d=beta, d_solid=2.0)
        x = np.linspace(0.0, 1.0, 101)
        for func in (flow_coefficient, drainage_coefficient):
            value, slope = func(x, params)
            assert np.isfinite(value).all() and np.isfinite(slope).all()
            assert slope[-1] == 0.0
            assert np.abs(slope).max() > 0.0

    def test_invalid_params(self):
        with pytest.raises(InvalidArgumentError):
            FlowParams(epsilon=1.5)
        with pytest.raises(InvalidArgumentError):
            FlowParams(eta_k=0.0)
        with pytest.raises(InvalidArgumentError):
            FlowParams(d_solid=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(FlowParams)])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(InvalidArgumentError):
            FlowParams(**{name: value})


class TestPenetrationRule:
    def test_decay_rate(self):
        params = FlowParams()
        ds = penetration_drainage(params, element_height=0.01,
                                  remainder=0.1, depth_elements=2.0)
        rate = np.sqrt(ds / params.k_solid)
        assert rate == pytest.approx(-np.log(0.1) / 0.02, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [{"remainder": np.nan},
                                        {"depth_elements": np.nan},
                                        {"depth_elements": np.inf}])
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            penetration_drainage(FlowParams(), 0.01, **kwargs)


class TestAssembly:
    def test_void_single_element_row_sums(self):
        mesh = generate_mesh(1, 1, 0.02, 0.02)
        design = make_uniform_design(mesh, [0.0, 0.3])
        params = FlowParams(d_solid=123.0)
        A, _ = assemble_flow(mesh, design, params)
        a = A.toarray()
        assert np.abs(a.sum(axis=1)).max() < 1e-12 * np.abs(a).max()

    def test_symmetry(self):
        mesh = generate_mesh(4, 3, 0.4, 0.3)
        rng = np.random.default_rng(0)
        design = make_uniform_design(mesh, [0.5, 0.5])
        design.filtered = rng.uniform(0, 1, design.filtered.shape)
        params = FlowParams(d_solid=0.01)
        A, _ = assemble_flow(mesh, design, params)
        diff = (A - A.T).tocoo()
        scale = np.abs(A.data).max()
        assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-13 * scale

    def test_transformation_design_independent(self):
        mesh = generate_mesh(4, 3, 0.4, 0.3)
        rng = np.random.default_rng(1)
        params = FlowParams(d_solid=0.01)
        transforms = []
        for _ in range(2):
            design = make_uniform_design(mesh, [0.5, 0.5])
            design.filtered = rng.uniform(0, 1, design.filtered.shape)
            transforms.append(assemble_flow(mesh, design, params)[1])
        a, b = transforms
        # T is only applied: equal products with every unit vector
        n = mesh.n_nodes
        assert np.array_equal(a @ np.eye(n), b @ np.eye(n))
        assert np.array_equal(a.T @ np.eye(2 * n), b.T @ np.eye(2 * n))

    def test_spd_after_dirichlet(self):
        mesh = generate_mesh(4, 3, 0.4, 0.3)
        design = make_uniform_design(mesh, [0.6, 0.5])
        params = FlowParams(d_solid=0.01)
        state = solve_pressure(*assemble_flow(mesh, design, params), mesh,
                               {"top": 1e5, "bottom": 0.0})
        free = ~state.factor.fixed
        a_ff = state.A[free][:, free].toarray()
        np.linalg.cholesky(a_ff)  # raises if not SPD


class TestSolvePressure:
    def test_void_strip_linear(self):
        mesh = strip_mesh()
        params = FlowParams(d_solid=1.0)
        state = solve_strip(mesh, 0.0, params)
        y = mesh.nodes[:, 1]
        exact = P_IN * y / mesh.Ly
        assert np.abs(state.p - exact).max() / P_IN < 1e-9

    def test_solid_strip_exponential_decay(self):
        mesh = strip_mesh(n=40)
        params0 = FlowParams()
        ds = penetration_drainage(params0, mesh.element_height)
        params = FlowParams(d_solid=ds)
        state = solve_strip(mesh, 1.0, params)
        depth = 2.0 * mesh.element_height
        y = mesh.nodes[:, 1]
        at_depth = np.isclose(y, mesh.Ly - depth, atol=1e-12)
        assert at_depth.any()
        ratio = state.p[at_depth].max() / P_IN
        assert ratio <= 0.12
        # exponential-decay oracle within discretization slack
        assert ratio == pytest.approx(0.1, abs=0.02)

    def test_constant_bc_gives_constant_field(self):
        mesh = strip_mesh(n=10)
        params = FlowParams(d_solid=0.0)  # pure diffusion
        c = 4.2e4
        state = solve_strip(mesh, 0.7, params, bc={"top": c, "bottom": c})
        assert np.abs(state.p - c).max() < 1e-9 * c

    def test_maximum_principle_at_benchmark_parameters(self):
        mesh = generate_mesh(12, 8, 0.2, 0.1)
        params0 = FlowParams()
        ds = penetration_drainage(params0, mesh.element_height)
        params = FlowParams(d_solid=ds)
        for rho in (0.2, 0.5, 0.9):
            design = make_uniform_design(mesh, [rho, 0.5])
            state = solve_pressure(*assemble_flow(mesh, design, params), mesh,
                                   {"top": 1e5, "bottom": 0.0})
            assert state.p.min() >= -1e-9 * P_IN
            assert state.p.max() <= P_IN * (1 + 1e-9)

    def test_pressure_drop_localizes_with_sharper_step(self):
        # nearly solid design: larger beta_k lowers the mid-depth pressure
        mesh = strip_mesh(n=20)
        mid = np.isclose(mesh.nodes[:, 1], mesh.Ly / 2, atol=mesh.element_height)
        previous = np.inf
        for beta_k in (5.0, 10.0, 20.0):
            params = FlowParams(beta_k=beta_k, d_solid=0.01)
            state = solve_strip(mesh, 0.8, params)
            value = state.p[mid].mean()
            assert value < previous
            previous = value

    def test_no_dirichlet_raises(self):
        mesh = strip_mesh(n=5)
        design = make_uniform_design(mesh, [0.5, 0.5])
        params = FlowParams()
        a, t = assemble_flow(mesh, design, params)
        with pytest.raises(IllPosedError):
            solve_pressure(a, t, mesh, {})

    def test_unknown_edge_raises(self):
        mesh = strip_mesh(n=5)
        design = make_uniform_design(mesh, [0.5, 0.5])
        params = FlowParams()
        a, t = assemble_flow(mesh, design, params)
        with pytest.raises(InvalidArgumentError):
            solve_pressure(a, t, mesh, {"north": 1e5})

    def test_non_finite_field_raises(self, monkeypatch):
        class NaNFactor:
            def __init__(self, factor):
                self.nnz = factor.nnz

            def solve(self, b):
                return np.full(b.shape, np.nan, dtype=b.dtype)

        real = _element_data.Cholesky
        monkeypatch.setattr(_element_data, "Cholesky",
                            lambda *args: NaNFactor(real(*args)))
        mesh = strip_mesh(n=10)
        with pytest.raises(SolverError, match="non-finite"):
            solve_strip(mesh, 0.5, FlowParams(d_solid=0.5))

    def test_residual_criterion(self):
        mesh = strip_mesh(n=10)
        params = FlowParams(d_solid=0.5)
        state = solve_strip(mesh, 0.5, params)
        residual = np.linalg.norm((state.A @ state.p)[~state.factor.fixed])
        assert residual / (spla.norm(state.A) * np.linalg.norm(state.p)) < 1e-10


class TestPressureLoads:
    def test_zero_pressure_zero_force(self):
        mesh = strip_mesh(n=5)
        design = make_uniform_design(mesh, [0.5, 0.5])
        params = FlowParams()
        _, t = assemble_flow(mesh, design, params)
        p = np.zeros(mesh.n_nodes)
        assert np.all(pressure_loads(t, p) == 0.0)

    def test_uniform_pressure_no_net_force(self):
        mesh = generate_mesh(5, 4, 0.5, 0.4)
        design = make_uniform_design(mesh, [0.3, 0.5])
        params = FlowParams()
        _, t = assemble_flow(mesh, design, params)
        c = 1e5
        p = np.full(mesh.n_nodes, c)
        f = pressure_loads(t, p)
        area = mesh.element_areas().sum()
        assert np.abs(f).sum() < 1e-9 * c * area

    def test_single_hexagon_linear_pressure_oracle(self):
        mesh = generate_mesh(1, 1, 0.02, 0.02)
        thickness = 1e-3
        design = make_uniform_design(mesh, [0.4, 0.5], thickness=thickness)
        params = FlowParams()
        _, t = assemble_flow(mesh, design, params)
        grad_p = 3.7e6
        p = grad_p * mesh.nodes[:, 0]

        f = pressure_loads(t, p)
        area = mesh.element_areas()[0]
        total = np.array([f[0::2].sum(), f[1::2].sum()])
        assert np.allclose(total, [-area * thickness * grad_p, 0.0],
                           atol=1e-12 * area * thickness * grad_p)

        # nodal distribution against an independent quadrature oracle
        verts = mesh.element_vertices(0)
        rule = hex_quadrature(verts)
        oracle = np.zeros(12)
        for point, weight in zip(rule.points, rule.weights):
            n = wachspress_shape(verts, point)
            g = wachspress_gradients(verts, point)
            gp = g.T @ p[mesh.elements[0]]
            for a in range(6):
                oracle[2 * a] -= thickness * weight * n[a] * gp[0]
                oracle[2 * a + 1] -= thickness * weight * n[a] * gp[1]
        scale = np.abs(oracle).max()
        assert np.abs(f - oracle).max() < 1e-12 * scale

    def test_loaded_edge_total_force(self):
        # uniform pressure on everything right of a straight vertical section
        # through shared corner nodes: the loaded boundary is closed by that
        # straight edge, so the net force is p * L * t along -x, exactly
        mesh = generate_mesh(8, 6, 0.4, 0.3)
        thickness = 1e-3
        design = make_uniform_design(mesh, [0.5, 0.5], thickness=thickness)
        params = FlowParams()
        _, t = assemble_flow(mesh, design, params)
        p_in = 1e5
        kx = mesh.node_lattice[:, 0]
        ky = mesh.node_lattice[:, 1]
        cut = 3 * (mesh.nex // 2)
        p = np.where(kx >= cut, p_in, 0.0)
        f = pressure_loads(t, p)
        on_cut = kx == cut
        _, sy2 = mesh.lattice_scales()
        edge_length = (ky[on_cut].max() - ky[on_cut].min()) * sy2
        expected = p_in * edge_length * thickness
        assert -f[0::2].sum() == pytest.approx(expected, rel=1e-9)
        assert abs(f[1::2].sum()) < 1e-9 * expected

    @settings(max_examples=48, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 11), st.integers(1, 7),
           st.sampled_from(("piston", "arch")), st.integers(0, 2**32 - 1))
    def test_net_load_and_transpose_of_random_fields(self, nex, ney, shape,
                                                     seed):
        # the Wachspress functions sum to one and are linear on the straight
        # edges, so the loads of any nodal pressure sum to the boundary
        # integral -t * closed integral of p_h n ds; and T^T is T's transpose
        mesh = shipped_shape_mesh(nex, ney, shape)
        thickness = 1e-3
        design = make_uniform_design(mesh, [0.5, 0.5], thickness=thickness)
        _, t = assemble_flow(mesh, design, FlowParams())
        rng = np.random.default_rng(seed)
        p = rng.uniform(-P_IN, P_IN, mesh.n_nodes)
        u = rng.normal(size=2 * mesh.n_nodes)

        f = pressure_loads(t, p)
        # boundary edges run counter-clockwise in their one element, so
        # (dy, -dx) is the outward normal times the length
        n = mesh.n_nodes
        i = mesh.elements.ravel()
        j = np.roll(mesh.elements, -1, axis=1).ravel()
        boundary = ~np.isin(i * n + j, j * n + i)
        i, j = i[boundary], j[boundary]
        d = mesh.nodes[j] - mesh.nodes[i]
        net = thickness * (0.5 * (p[i] + p[j]) @ np.column_stack(
            [d[:, 1], -d[:, 0]]))
        scale = thickness * np.abs(p).max() * np.hypot(*d.T).sum()
        # worst over these 48 draws: 1.3e-16 of the scale
        assert np.abs([f[0::2].sum(), f[1::2].sum()] + net).max() \
            <= 1e-14 * scale

        tp = t @ p
        # worst over these 48 draws: 3.1e-16 of the sum of |u_i (T p)_i|
        assert abs(u @ tp - (t.T @ u) @ p) <= 1e-14 * np.abs(u * tp).sum()
