"""Acceptance suite: one test per criterion, each printing a PASS line.

The desk-scale runs use the same physics and parameters as the full
benchmarks on coarser meshes so the whole suite stays batch-friendly; the
two full-scale configurations are still run to completion at the end.
"""

import time

import numpy as np
import pytest

from presstopo import (
    FlowParams,
    assemble_flow,
    compliance_sensitivity,
    driver,
    element_stiffness,
    generate_mesh,
    hex_quadrature,
    load_config,
    penetration_drainage,
    solve_pressure,
    wachspress_shape,
    write_outputs,
)
from presstopo.config import SupportSpec
from presstopo.mma import MmaState, mma_update

from conftest import arch_config, make_uniform_design
from test_adjoint import fd_resolvable, finite_difference
from test_elasticity import domain_boundary_nodes


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def desk_arch_config(nex):
    return arch_config(
        nex=nex, ney=30, max_iterations=100,
        supports=(SupportSpec("bottom", 0.0, 0.05),
                  SupportSpec("bottom", 0.95, 1.0)),
        filter_radius_elements=3.0,
    )


@pytest.fixture(scope="session")
def desk_arch_60():
    return driver.run_optimization(desk_arch_config(60))


@pytest.fixture(scope="session")
def desk_piston():
    cfg = arch_config(
        nex=60, ney=40, n_materials=3, max_iterations=100,
        lx=0.12, ly=0.04,
        supports=(SupportSpec("right", 0.0, 1.0, "both"),
                  SupportSpec("left", 0.0, 1.0, "x")),
        filter_radius_elements=3.6 * np.sqrt(3),
    )
    return driver.run_optimization(cfg)


def material_means_near_supports(result, cfg, support_specs):
    """Mean phase densities over solid elements within 2 r_fill of supports."""
    from presstopo.fields import material_phase_densities

    mesh = result.mesh
    phases = material_phase_densities(result.design.filtered)
    sup_nodes = np.unique(driver.support_dofs(mesh, support_specs) // 2)
    cents = mesh.element_centroids()
    d2 = ((cents[:, None, :] - mesh.nodes[sup_nodes][None, :, :]) ** 2
          ).sum(-1).min(axis=1)
    near_solid = (d2 < (2 * cfg.filter_radius) ** 2) \
        & (result.design.filtered[:, 0] > 0.5)
    assert near_solid.any()
    return phases[near_solid].mean(axis=0)


class TestCriterion1GradientCorrectness:
    def test_adjoint_matches_fd_on_12x8_arch(self):
        start = time.perf_counter()
        cfg = arch_config(nex=12, ney=8)
        mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
        rng = np.random.default_rng(2024)
        raw = rng.uniform(0.15, 0.85, size=(mesh.n_elements, 2))
        design = driver.make_design(raw, filt, mesh, materials)
        estate = driver.analyze(design, mesh, materials, flow, fixed,
                                cfg.pressure_bc)
        grad = compliance_sensitivity(mesh, materials, flow, estate, filt)
        h = 1e-6
        fd = finite_difference(raw, h, mesh, filt, materials, flow, fixed,
                               cfg.pressure_bc)
        mask = fd_resolvable(grad, estate.compliance, h, 1e-4)
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(grad[mask])
        elapsed = time.perf_counter() - start
        assert mask.sum() > 0.5 * grad.size
        assert rel.max() < 1e-4
        assert elapsed < 60.0
        _report(1, f"max rel err {rel.max():.2e} on {mask.sum()}/{grad.size} "
                   f"components in {elapsed:.1f} s")


class TestCriterion2LoadSensitivity:
    def test_dropping_load_term_changes_gradient(self, arch_fixture):
        fx = arch_fixture
        args = (fx["mesh"], fx["materials"], fx["flow"], fx["estate"],
                fx["filt"])
        full = compliance_sensitivity(*args)
        dropped = compliance_sensitivity(*args, include_load_term=False)
        diff = np.linalg.norm(full - dropped) / np.linalg.norm(full)
        assert diff > 1e-3
        _report(2, f"load term changes the gradient by {diff:.1%}")


class TestCriterion3DarcyAnalytics:
    def test_void_strip_linear(self):
        mesh = generate_mesh(1, 30, 0.01, 0.3)
        params = FlowParams(d_solid=0.5)
        design = make_uniform_design(mesh, [0.0, 0.5])
        state = solve_pressure(*assemble_flow(mesh, design, params), mesh,
                               {"top": 1e5, "bottom": 0.0})
        exact = 1e5 * mesh.nodes[:, 1] / mesh.Ly
        err = np.abs(state.p - exact).max() / 1e5
        assert err < 1e-9
        _report("3a", f"void strip linear to {err:.1e}")

    def test_solid_strip_penetration_decay(self):
        mesh = generate_mesh(1, 40, 0.01, 0.4)
        base = FlowParams()
        ds = penetration_drainage(base, mesh.element_height,
                                  remainder=0.1, depth_elements=2.0)
        params = FlowParams(d_solid=ds)
        design = make_uniform_design(mesh, [1.0, 0.5])
        state = solve_pressure(*assemble_flow(mesh, design, params), mesh,
                               {"top": 1e5, "bottom": 0.0})
        depth = 2.0 * mesh.element_height
        at_depth = np.isclose(mesh.nodes[:, 1], mesh.Ly - depth, atol=1e-12)
        ratio = state.p[at_depth].max() / 1e5
        assert ratio <= 0.12
        _report("3b", f"solid strip holds {ratio:.3f} p_in at the "
                      "penetration depth (target 0.1, cap 0.12)")


class TestCriterion4ElementQuality:
    def test_wachspress_identities_at_quadrature_points(self):
        mesh = generate_mesh(4, 3, 0.35, 0.3)
        worst_pou = worst_lin = 0.0
        for e in range(mesh.n_elements):
            v = mesh.element_vertices(e)
            rule = hex_quadrature(v)
            for p in rule.points:
                n = wachspress_shape(v, p)
                worst_pou = max(worst_pou, abs(n.sum() - 1.0))
                worst_lin = max(worst_lin, np.abs(n @ v - p).max()
                                / max(mesh.Lx, mesh.Ly))
        assert worst_pou < 1e-10
        assert worst_lin < 1e-10
        _report("4a", f"partition of unity {worst_pou:.1e}, linear "
                      f"reproduction {worst_lin:.1e}")

    def test_patch_test(self):
        from presstopo.elasticity import assemble_stiffness, solve_displacements
        from presstopo.fields import MaterialSet

        mesh = generate_mesh(5, 4, 1.0, 0.8)
        mats = MaterialSet(e_moduli=(1.0,), nu=0.3, thickness=1.0)
        design = make_uniform_design(mesh, [1.0], thickness=1.0)
        k = assemble_stiffness(mesh, design, mats)
        grad = np.array([[1e-3, 4e-4], [2e-4, -6e-4]])
        u_exact = (mesh.nodes @ grad.T).ravel()
        bnodes = domain_boundary_nodes(mesh)
        fixed = np.sort(np.concatenate([2 * bnodes, 2 * bnodes + 1]))
        u, _ = solve_displacements(k, np.zeros(k.shape[0]), mesh, fixed,
                                   u_exact[fixed])
        interior = np.setdiff1d(np.arange(k.shape[0]), fixed)
        rel = np.abs(u[interior] - u_exact[interior]).max() \
            / np.abs(u_exact).max()
        assert rel < 1e-8
        _report("4b", f"patch test interior error {rel:.1e}")

    def test_rigid_modes(self):
        mesh = generate_mesh(2, 2, 0.2, 0.2)
        for e in range(mesh.n_elements):
            k = element_stiffness(mesh.element_vertices(e), 40e6, 0.4, 1e-3)
            w = np.linalg.eigvalsh(k)
            assert (np.abs(w) < 1e-9 * w.max()).sum() == 3
        _report("4c", "every element stiffness has exactly 3 rigid modes")


class TestCriterion5MmaSanity:
    def test_analytic_optima_and_contracts(self):
        n = 40
        state = MmaState.for_variables(n)
        x = np.full(n, 0.5)
        for _ in range(30):
            x_new = mma_update(x, ((x - 0.3) ** 2).sum(), 2 * (x - 0.3),
                               np.zeros(0), np.zeros((0, n)), state)
            assert np.abs(x_new - x).max() <= 0.1 + 1e-12
            assert x_new.min() >= 0.0 and x_new.max() <= 1.0
            x = x_new
        quad_err = np.abs(x - 0.3).max()
        assert quad_err < 1e-6

        n = 50
        state = MmaState.for_variables(n)
        x = np.full(n, 0.2)
        for _ in range(100):
            g = np.array([x.mean() - 0.4])
            dg = np.full((1, n), 1.0 / n)
            x_new = mma_update(x, -x.mean(), np.full(n, -1.0 / n), g, dg,
                               state)
            assert np.abs(x_new - x).max() <= 0.1 + 1e-12
            assert x_new.min() >= 0.0 and x_new.max() <= 1.0
            x = x_new
        cons_err = abs(x.mean() - 0.4)
        assert cons_err < 1e-6
        _report(5, f"quadratic optimum to {quad_err:.1e}, constrained "
                   f"optimum to {cons_err:.1e}, bounds and move limit held")


class TestCriterion6DeskArch:
    def test_runtime_and_constraint_activity(self, desk_arch_60):
        cfg = desk_arch_config(60)
        log = desk_arch_60.log
        assert log.wall_time < 300.0
        g = np.array(log.records[-1].volume_measures)
        gap = np.abs(g - cfg.constraint_bounds).max()
        assert gap < 1e-3
        _report("6a", f"both volume constraints active, |g - bound| = "
                      f"{gap:.1e}, run took {log.wall_time:.0f} s")

    def test_mirror_symmetry(self):
        # exact element-wise mirror symmetry of a half-staggered honeycomb
        # exists only for an odd column count (column i maps to nex-1-i,
        # which must preserve the stagger parity); the desk arch is therefore
        # checked on the 61-column sibling of the 60x30 fixture
        result = driver.run_optimization(desk_arch_config(61))
        perm = result.mesh.mirror_element_pairs()
        asym = np.abs(result.design.raw - result.design.raw[perm]).max()
        assert asym < 1e-6
        _report("6b", f"design mirror-symmetric to {asym:.1e} after "
                      "100 iterations (61x30 mirror-capable mesh)")

    def test_compliance_drop(self, desk_arch_60):
        recs = desk_arch_60.log.records
        ratio = recs[99].compliance / recs[4].compliance
        assert ratio < 0.25
        _report("6c", f"compliance(100)/compliance(5) = {ratio:.3f}")

    def test_stiff_material_at_supports(self, desk_arch_60):
        cfg = desk_arch_config(60)
        means = material_means_near_supports(desk_arch_60, cfg, cfg.supports)
        assert means[1] > means[0]
        _report("6d", f"near supports mean material-2 density {means[1]:.3f} "
                      f"> material-1 {means[0]:.3f}")


class TestCriterion7DeskPiston:
    def test_three_constraints_active(self, desk_piston):
        bounds = np.array([0.25, 0.15, 0.05])
        g = np.array(desk_piston.log.records[-1].volume_measures)
        gap = np.abs(g - bounds).max()
        assert gap < 1e-3
        _report("7a", f"all three volume constraints active, |g - bound| = "
                      f"{gap:.1e}")

    def test_stiffest_material_at_fixed_boundary(self, desk_piston):
        cfg = desk_piston.config
        means = material_means_near_supports(
            desk_piston, cfg, (SupportSpec("right", 0.0, 1.0, "both"),))
        assert means[2] > means[0] and means[2] > means[1]
        _report("7b", f"at the fixed boundary material-3 density "
                      f"{means[2]:.3f} exceeds materials 1-2 "
                      f"({means[0]:.3f}, {means[1]:.3f})")


class TestCriterion8FullScale:
    @pytest.mark.parametrize("name", ["arch-2mat", "piston-2mat"])
    def test_paper_scale_config_runs_to_completion(self, name, tmp_path):
        cfg = load_config(name)
        start = time.perf_counter()
        result = driver.run_optimization(cfg)
        elapsed = time.perf_counter() - start
        assert len(result.log.records) == cfg.max_iterations
        written = write_outputs(result, tmp_path / name)
        names = {p.name for p in written}
        assert {"convergence.csv", "design.csv", "final.vtk",
                "final.svg"} <= names
        g = np.array(result.log.records[-1].volume_measures)
        _report(8, f"{name} ({cfg.nex}x{cfg.ney}) completed "
                   f"{cfg.max_iterations} iterations in {elapsed / 60:.1f} "
                   f"min, final g = {np.round(g, 4)}, all outputs written")
