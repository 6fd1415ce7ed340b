from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import (
    InvalidArgumentError,
    compliance_sensitivity,
    config,
    constraint_sensitivities,
    volume_measures,
)
from presstopo import driver
from conftest import arch_config

# the arch's two bottom patches (the default of arch_config), and the
# piston's clamped right edge and x-roller on its left symmetry cut
ASPECTS = {
    "arch": {},
    "piston": dict(lx=0.12, ly=0.04, supports=(
        config.SupportSpec("right", 0.0, 1.0),
        config.SupportSpec("left", 0.0, 1.0, "x"))),
}


def pipeline_compliance(raw, mesh, filt, materials, flow, fixed, bc):
    design = driver.make_design(raw, filt, mesh, materials)
    estate = driver.analyze(design, mesh, materials, flow, fixed, bc)
    return estate.compliance


def finite_difference(raw, h, mesh, filt, materials, flow, fixed, bc):
    fd = np.zeros_like(raw)
    for j in range(raw.shape[1]):
        for e in range(raw.shape[0]):
            bump = raw.copy()
            bump[e, j] = raw[e, j] + h
            c_plus = pipeline_compliance(bump, mesh, filt, materials, flow,
                                         fixed, bc)
            bump[e, j] = raw[e, j] - h
            c_minus = pipeline_compliance(bump, mesh, filt, materials, flow,
                                          fixed, bc)
            fd[e, j] = (c_plus - c_minus) / (2 * h)
    return fd


def directional_error(cfg, raw, direction):
    """Best relative error, over h in {1e-5, 1e-6, 1e-7}, of the central
    difference of the compliance along ``direction`` against the adjoint
    directional derivative at ``raw``."""
    mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
    bc = cfg.pressure_bc
    design = driver.make_design(raw, filt, mesh, materials)
    estate = driver.analyze(design, mesh, materials, flow, fixed, bc)
    grad = compliance_sensitivity(mesh, materials, flow, estate, filt)
    analytic = (grad * direction).sum()
    best = np.inf
    for h in (1e-5, 1e-6, 1e-7):
        c_plus = pipeline_compliance(np.clip(raw + h * direction, 0, 1), mesh,
                                     filt, materials, flow, fixed, bc)
        c_minus = pipeline_compliance(np.clip(raw - h * direction, 0, 1),
                                      mesh, filt, materials, flow, fixed, bc)
        fd = (c_plus - c_minus) / (2 * h)
        best = min(best, abs(fd - analytic) / abs(analytic))
    return best


@st.composite
def adjoint_problems(draw):
    """An arch or piston aspect with 2 or 3 materials on 5-12 x 2-9
    elements (under 5 columns the arch's patches leave its rotation free),
    a raw design in [0.15, 0.85] and a direction."""
    cfg = arch_config(nex=draw(st.integers(5, 12)),
                      ney=draw(st.integers(2, 9)),
                      n_materials=draw(st.sampled_from([2, 3])),
                      **ASPECTS[draw(st.sampled_from(sorted(ASPECTS)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.15, 0.85, size=(cfg.nex * cfg.ney, cfg.n_materials))
    direction = rng.normal(size=raw.shape)
    return cfg, raw, direction / np.abs(direction).max()


def fd_resolvable(grad, compliance, h, rel_tol):
    """Components large enough for central differences to resolve at rel_tol.

    Sparse solves evaluate compliance to about 1e-12 relative, so the
    difference quotient carries absolute noise near 1e-12 |c| / h; below
    noise / rel_tol a per-component relative comparison only measures that
    noise.
    """
    noise = 1e-12 * abs(compliance) / h
    floor = max(1e-12 * np.abs(grad).max(), noise / rel_tol)
    return np.abs(grad) > floor


class TestComplianceSensitivity:
    def test_matches_full_pipeline_fd(self):
        cfg = arch_config(nex=6, ney=4)
        mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.15, 0.85, size=(mesh.n_elements, 2))
        design = driver.make_design(raw, filt, mesh, materials)
        estate = driver.analyze(design, mesh, materials, flow, fixed,
                                cfg.pressure_bc)
        grad = compliance_sensitivity(mesh, materials, flow, estate, filt)
        h = 1e-6
        fd = finite_difference(raw, h, mesh, filt, materials, flow, fixed,
                               cfg.pressure_bc)
        mask = fd_resolvable(grad, estate.compliance, h, 1e-4)
        assert mask.sum() > 0.5 * grad.size
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(grad[mask])
        assert rel.max() < 1e-4

    def test_directional_derivative_h_sweep(self):
        cfg = arch_config(nex=5, ney=4)
        rng = np.random.default_rng(12)
        raw = rng.uniform(0.2, 0.8, size=(cfg.nex * cfg.ney, 2))
        direction = rng.normal(size=raw.shape)
        direction /= np.abs(direction).max()
        assert directional_error(cfg, raw, direction) < 1e-4

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(adjoint_problems())
    def test_directional_derivative_over_problems(self, problem):
        assert directional_error(*problem) < 1e-4

    def test_design_independent_load_variant(self):
        # zero step slopes freeze the flow matrix; the load-term contribution
        # must vanish and the gradient reduce to the classical stiffness term
        cfg = arch_config(nex=5, ney=4, flow_beta=0.0, drain_beta=0.0)
        mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
        assert flow.beta_k == 0.0 and flow.beta_d == 0.0
        rng = np.random.default_rng(13)
        raw = rng.uniform(0.2, 0.8, size=(mesh.n_elements, 2))
        design = driver.make_design(raw, filt, mesh, materials)
        estate = driver.analyze(design, mesh, materials, flow, fixed,
                                cfg.pressure_bc)
        full = compliance_sensitivity(mesh, materials, flow, estate, filt)
        no_load = compliance_sensitivity(mesh, materials, flow, estate, filt,
                                         include_load_term=False)
        assert np.array_equal(full, no_load)

    def test_selection_gradient_vanishes_in_void(self):
        cfg = arch_config(nex=5, ney=4)
        mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
        # identity-like filter so zero raw density stays zero after filtering
        import warnings

        from presstopo.fields import build_filter

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            filt = build_filter(mesh, 1e-9)
        raw = np.zeros((mesh.n_elements, 2))
        raw[:, 1] = 0.6
        design = driver.make_design(raw, filt, mesh, materials)
        estate = driver.analyze(design, mesh, materials, flow, fixed,
                                cfg.pressure_bc)
        grad = compliance_sensitivity(mesh, materials, flow, estate, filt)
        assert np.all(grad[:, 1] == 0.0)

    def test_dropping_load_term_changes_gradient(self, arch_fixture):
        fx = arch_fixture
        full = compliance_sensitivity(fx["mesh"], fx["materials"], fx["flow"],
                                      fx["estate"], fx["filt"])
        dropped = compliance_sensitivity(fx["mesh"], fx["materials"],
                                         fx["flow"], fx["estate"], fx["filt"],
                                         include_load_term=False)
        diff = np.linalg.norm(full - dropped) / np.linalg.norm(full)
        assert diff > 1e-3

    def test_state_of_another_mesh_rejected(self):
        # two meshes with the same node and element counts and another
        # element shape: a state of one would give a wrong gradient on the
        # other, with no error
        def solved(lx):
            cfg = arch_config(nex=6, ney=4, **dict(ASPECTS["piston"], lx=lx))
            mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
            raw = driver.initial_design(cfg, mesh)
            design = driver.make_design(raw, filt, mesh, materials)
            state = driver.analyze(design, mesh, materials, flow, fixed,
                                   cfg.pressure_bc)
            return mesh, materials, flow, filt, state

        mesh, materials, flow, filt, own = solved(0.12)
        other = solved(0.3)[-1]
        for state in (other, replace(own, K=other.K),
                      replace(own, pressure=other.pressure)):
            with pytest.raises(InvalidArgumentError, match="this mesh"):
                compliance_sensitivity(mesh, materials, flow, state, filt)
        compliance_sensitivity(mesh, materials, flow, own, filt)


class TestConstraintSensitivities:
    def test_uniform_mesh_equal_entries(self, arch_fixture):
        fx = arch_fixture
        import warnings

        from presstopo.fields import build_filter

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ident = build_filter(fx["mesh"], 1e-9)
        grads = constraint_sensitivities(fx["design"], ident)
        nel = fx["mesh"].n_elements
        for j, g in enumerate(grads):
            assert np.allclose(g[:, j], 1.0 / nel, atol=1e-15)
            other = [k for k in range(g.shape[1]) if k != j]
            assert np.all(g[:, other] == 0.0)

    def test_matches_dense_transpose_oracle(self, arch_fixture):
        fx = arch_fixture
        grads = constraint_sensitivities(fx["design"], fx["filt"])
        v = fx["design"].element_volumes
        h_dense = fx["filt"].H.toarray()
        oracle = h_dense.T @ (v / v.sum())
        assert len(grads) == 2
        assert all(np.isfinite(g).all() for g in grads)
        for j, g in enumerate(grads):
            assert np.abs(g[:, j] - oracle).max() < 1e-13

    def test_design_independent(self, arch_fixture):
        fx = arch_fixture
        a = constraint_sensitivities(fx["design"], fx["filt"])
        other = driver.make_design(
            np.clip(fx["raw"] * 0.5, 0, 1), fx["filt"], fx["mesh"],
            fx["materials"])
        b = constraint_sensitivities(other, fx["filt"])
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_consistent_with_fd_of_volume_measures(self, arch_fixture):
        fx = arch_fixture
        grads = constraint_sensitivities(fx["design"], fx["filt"])
        h = 1e-6
        rng = np.random.default_rng(14)
        for _ in range(5):
            e = rng.integers(fx["mesh"].n_elements)
            j = rng.integers(2)
            bump = fx["raw"].copy()
            bump[e, j] += h
            up = volume_measures(driver.make_design(
                bump, fx["filt"], fx["mesh"], fx["materials"]))
            bump[e, j] -= 2 * h
            dn = volume_measures(driver.make_design(
                bump, fx["filt"], fx["mesh"], fx["materials"]))
            fd = (up - dn) / (2 * h)
            for k in range(2):
                assert fd[k] == pytest.approx(grads[k][e, j], abs=1e-9)
