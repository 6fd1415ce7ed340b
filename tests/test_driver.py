import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import (ConfigError, DesignField, FlowParams, MaterialSet,
                       build_filter, compliance_sensitivity, generate_mesh,
                       volume_measures)
from presstopo import driver
from presstopo.config import SupportSpec

from conftest import arch_config


class TestProblemSetup:
    def test_initialization_values(self):
        cfg = arch_config(nex=5, ney=4)
        mesh, *_ = driver.build_problem(cfg)
        raw = driver.initial_design(cfg, mesh)
        assert np.allclose(raw[:, 0], 0.2)
        assert np.allclose(raw[:, 1], 0.5)

    def test_initialization_three_materials(self):
        cfg = arch_config(nex=5, ney=4, n_materials=3)
        mesh, *_ = driver.build_problem(cfg)
        raw = driver.initial_design(cfg, mesh)
        assert np.allclose(raw[:, 0], 0.25)
        assert np.allclose(raw[:, 1], 0.15 / 0.25)
        assert np.allclose(raw[:, 2], 0.05 / 0.15)

    def test_constraint_bounds_cumulative_tails(self):
        cfg = arch_config(n_materials=3)
        assert np.allclose(cfg.constraint_bounds, [0.25, 0.15, 0.05])

    def test_support_selection(self):
        cfg = arch_config(nex=5, ney=4)
        mesh, _, _, _, fixed = driver.build_problem(cfg)
        nodes = np.unique(fixed // 2)
        assert np.all(mesh.nodes[nodes, 1] < 1e-12)
        xs = mesh.nodes[nodes, 0]
        assert np.all((xs <= 0.2 * mesh.Lx + 1e-12)
                      | (xs >= 0.8 * mesh.Lx - 1e-12))

    def test_roller_supports_single_direction(self):
        cfg = arch_config(
            nex=5, ney=4,
            supports=(SupportSpec("right", 0.0, 1.0, "both"),
                      SupportSpec("left", 0.0, 1.0, "x")),
        )
        mesh, _, _, _, fixed = driver.build_problem(cfg)
        left = mesh.boundary_node_sets["left"]
        assert set(2 * left) <= set(fixed)
        assert not set(2 * left + 1) & set(fixed)

    def test_empty_support_selection_rejected(self):
        cfg = arch_config(nex=5, ney=4)
        mesh, *_ = driver.build_problem(cfg)
        with pytest.raises(ConfigError):
            driver.support_dofs(
                mesh, (SupportSpec("top", 0.4999, 0.49999),))

    def test_penetration_drainage_applied(self):
        cfg = arch_config(nex=5, ney=4)
        mesh, _, _, flow, _ = driver.build_problem(cfg)
        expected = (np.log(0.1) / (2 * mesh.element_height)) ** 2 * flow.k_solid
        assert flow.d_solid == pytest.approx(expected, rel=1e-12)


class TestRunOptimization:
    def test_reproducible_runs(self):
        cfg = arch_config(nex=6, ney=4, max_iterations=4)
        a = driver.run_optimization(cfg)
        b = driver.run_optimization(cfg)
        for ra, rb in zip(a.log.records, b.log.records):
            assert ra.compliance == rb.compliance
            assert ra.volume_measures == rb.volume_measures
            assert ra.max_design_change == rb.max_design_change
        assert np.array_equal(a.design.raw, b.design.raw)

    def test_logged_measures_match_design(self):
        cfg = arch_config(nex=6, ney=4, max_iterations=3)
        mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
        result = driver.run_optimization(cfg)
        # the first logged record corresponds to the initial design; compare
        # against a direct evaluation of the volume measures
        raw = driver.initial_design(cfg, mesh)
        design = driver.make_design(raw, filt, mesh, materials)
        g = volume_measures(design)
        assert np.allclose(result.log.records[0].volume_measures, g,
                           atol=1e-15)

    def test_compliance_positive_every_iteration(self):
        cfg = arch_config(nex=6, ney=4, max_iterations=5)
        result = driver.run_optimization(cfg)
        assert len(result.log.records) == 5
        for r in result.log.records:
            assert np.isfinite(r.compliance) and r.compliance > 0

    def test_move_limit_respected_in_log(self):
        cfg = arch_config(nex=6, ney=4, max_iterations=5)
        result = driver.run_optimization(cfg)
        for r in result.log.records:
            assert r.max_design_change <= 0.1 + 1e-12

    def test_symmetry_preserved_on_mirror_symmetric_mesh(self):
        # odd column count gives an exactly mirror-symmetric honeycomb; the
        # whole pipeline must then preserve design symmetry at every iteration
        cfg = arch_config(
            nex=13, ney=8, max_iterations=8,
            supports=(SupportSpec("bottom", 0.0, 0.12),
                      SupportSpec("bottom", 0.88, 1.0)),
        )
        mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
        perm = mesh.mirror_element_pairs()

        asymmetry = []

        def watch(it, record):
            asymmetry.append(record)

        result = driver.run_optimization(cfg, progress=watch)
        final = result.design.raw
        assert np.abs(final - final[perm]).max() < 1e-6

    def test_early_stop_on_step_tolerance(self):
        cfg = arch_config(nex=6, ney=4, max_iterations=50, step_tolerance=0.2)
        result = driver.run_optimization(cfg)
        # first step already below 0.2 never happens; the loop stops as soon
        # as one max_dx falls under the tolerance
        assert len(result.log.records) < 50

    def test_states_match_final_design(self):
        cfg = arch_config(nex=6, ney=4, max_iterations=3)
        result = driver.run_optimization(cfg)
        assert result.elastic.design is result.design
        assert result.elastic.pressure is result.pressure

    def test_zero_iterations_gives_empty_log(self):
        cfg = arch_config(nex=6, ney=4, max_iterations=0)
        result = driver.run_optimization(cfg)
        assert result.log.records == []
        assert result.pressure.p is not None

    def test_loop_errors_tagged_with_iteration(self, monkeypatch):
        from presstopo.errors import SolverError

        cfg = arch_config(nex=6, ney=4, max_iterations=5)
        real_analyze = driver.analyze
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SolverError("synthetic failure")
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(driver, "analyze", flaky)
        with pytest.raises(SolverError, match="iteration 3"):
            driver.run_optimization(cfg)

    def test_final_analysis_error_tagged(self, monkeypatch):
        from presstopo.errors import SolverError

        cfg = arch_config(nex=6, ney=4, max_iterations=3)
        real_analyze = driver.analyze
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == cfg.max_iterations + 1:
                raise SolverError("synthetic failure")
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(driver, "analyze", flaky)
        with pytest.raises(SolverError, match="^final analysis after 3 "
                                              "iterations: synthetic failure$"):
            driver.run_optimization(cfg)


class TestSectionThickness:
    """Loads, stiffness and the gradient all take the design's thickness."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(nex=st.integers(2, 8), ney=st.integers(2, 6),
           domain=st.sampled_from([(0.12, 0.04), (0.2, 0.1)]),
           seed=st.integers(0, 2**32 - 1),
           thickness=st.floats(1e-4, 1.0))
    def test_analysis_scales_with_design_thickness(self, nex, ney, domain,
                                                   seed, thickness):
        mesh = generate_mesh(nex, ney, *domain)
        materials = MaterialSet(e_moduli=(40e6, 100e6), thickness=1e-3)
        flow = FlowParams(d_solid=0.5)
        fixed = driver.support_dofs(mesh, (SupportSpec("bottom", 0.0, 1.0),))
        filt = build_filter(mesh, 1.5 * mesh.Lx / nex)
        raw = np.random.default_rng(seed).uniform(0.0, 1.0,
                                                  (mesh.n_elements, 2))

        def analyze(t):
            design = DesignField(raw, filt.apply(raw),
                                 mesh.element_areas() * t, t)
            state = driver.analyze(design, mesh, materials, flow, fixed,
                                   {"top": 1e5, "bottom": 0.0})
            return state, compliance_sensitivity(mesh, materials, flow,
                                                 state, filt)

        (ref, dc_ref), (got, dc) = analyze(1e-3), analyze(thickness)
        scale = thickness / 1e-3

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

        assert close(got.pressure.p, ref.pressure.p)
        assert close(got.u, ref.u)
        assert close(got.F, scale * ref.F)
        assert got.compliance == pytest.approx(scale * ref.compliance,
                                               rel=1e-12)
        assert close(dc, scale * dc_ref)


class TestStateLifetime:
    def test_previous_state_freed_before_next_analysis(self, monkeypatch):
        analyze = driver.analyze
        refs = []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in refs)
            state = analyze(*args, **kwargs)
            refs.append(weakref.ref(state))
            return state

        monkeypatch.setattr(driver, "analyze", tracked)
        result = driver.run_optimization(
            arch_config(nex=5, ney=4, max_iterations=3))
        # three iterations and the final analysis, whose state is returned
        assert len(refs) == 4
        assert refs[-1]() is result.elastic


class TestConfigValidation:
    def test_volume_fraction_count_mismatch(self):
        with pytest.raises(ConfigError):
            arch_config(volume_fractions=(0.1, 0.1, 0.1))

    def test_fraction_sum_capped(self):
        with pytest.raises(ConfigError):
            arch_config(volume_fractions=(0.6, 0.6))

    def test_unknown_pressure_edge(self):
        with pytest.raises(ConfigError):
            arch_config(pressure_bc={"north": 1e5})

    def test_supports_required(self):
        with pytest.raises(ConfigError):
            arch_config(supports=())

    def test_filter_radius_rule(self):
        cfg = arch_config(nex=10, filter_radius_elements=3.0)
        assert cfg.filter_radius == pytest.approx(3.0 * cfg.lx / 10)
        cfg = arch_config(filter_radius_abs=0.004)
        assert cfg.filter_radius == 0.004
        for radius in ({"filter_radius_abs": np.nan},
                       {"filter_radius_elements": np.inf}):
            with pytest.raises(ConfigError, match="filter radius"):
                arch_config(**radius)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", [
        "lx", "ly", "thickness", "nu", "simp_penalty", "flow_contrast",
        "flow_eta", "flow_beta", "drain_eta", "drain_beta",
        "drainage_solid", "drainage_remainder",
        "drainage_depth_elements", "filter_radius_elements",
        "filter_radius_abs", "move_limit", "step_tolerance"])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ConfigError):
            arch_config(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("overrides", [
        lambda v: {"volume_fractions": (v, 0.1)},
        lambda v: {"e_moduli": (40e6, v)},
        lambda v: {"pressure_bc": {"top": v, "bottom": 0.0}},
        lambda v: {"pressure_bc": {"top": 1e5, "bottom": v}},
        lambda v: {"supports": (SupportSpec("bottom", v, 0.2),)},
        lambda v: {"supports": (SupportSpec("bottom", 0.0, v),)},
        lambda v: {"nex": v},
        lambda v: {"ney": v},
        lambda v: {"max_iterations": v},
    ], ids=["fraction", "modulus", "inlet", "outlet", "support_lo",
            "support_hi", "nex", "ney", "max_iterations"])
    def test_non_finite_value_rejected(self, overrides, value):
        with pytest.raises(ConfigError):
            arch_config(**overrides(value))


class TestDesignRestart:
    def test_design_csv_roundtrip(self, tmp_path):
        from presstopo.outputs import write_design_csv

        cfg = arch_config(nex=5, ney=4, max_iterations=2)
        result = driver.run_optimization(cfg)
        path = tmp_path / "design.csv"
        write_design_csv(path, result.design)
        loaded = driver.read_design_csv(path, result.mesh.n_elements, 2)
        assert np.allclose(loaded, result.design.raw, atol=1e-16)

    def test_restart_shape_mismatch(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("element,rho1\n0,0.5\n")
        with pytest.raises(ConfigError):
            driver.read_design_csv(path, 10, 1)

    def test_restart_non_finite_names_file(self, tmp_path):
        path = tmp_path / "design.csv"
        rows = [f"{e},0.2,0.5" for e in range(20)]
        rows[7] = "7,nan,0.5"
        path.write_text("element,rho1,rho2\n" + "\n".join(rows) + "\n")
        cfg = arch_config(nex=5, ney=4, initial_design=str(path))
        with pytest.raises(ConfigError, match="design.csv"):
            driver.run_optimization(cfg)
