import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import (
    DesignField,
    FilterOperator,
    InvalidArgumentError,
    MaterialSet,
    build_filter,
    generate_mesh,
    interpolate_modulus,
    material_phase_densities,
    modulus_derivatives,
    volume_measures,
)
from presstopo import cli, driver
from presstopo.config import builtin_config_path, load_config

from conftest import arch_config, make_uniform_design


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(6, 5, 0.6, 0.5)


@pytest.fixture(scope="module")
def radius(mesh):
    return 2.5 * mesh.Lx / mesh.nex


@pytest.fixture(scope="module")
def filt(mesh, radius):
    return build_filter(mesh, radius)


def brute_force_filter(mesh, r_fill):
    """Direct double loop over all element pairs: conic volume weights."""
    cents = mesh.element_centroids()
    vols = mesh.element_areas()
    nel = mesh.n_elements
    h = np.zeros((nel, nel))
    for i in range(nel):
        for j in range(nel):
            d = np.hypot(*(cents[i] - cents[j]))
            w = max(0.0, 1.0 - d / r_fill)
            h[i, j] = vols[j] * w
        h[i] /= h[i].sum()
    return h


class TestFilter:
    def test_tiny_radius_is_identity_with_warning(self, mesh):
        with pytest.warns(UserWarning):
            f = build_filter(mesh, 1e-9)
        x = np.random.default_rng(0).uniform(size=mesh.n_elements)
        assert np.array_equal(f.apply(x), x)

    @pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf])
    def test_radius_positive_and_finite(self, mesh, r):
        with pytest.raises(InvalidArgumentError, match="filter radius"):
            build_filter(mesh, r)

    def test_rows_sum_to_one(self, filt, mesh):
        ones = np.ones(mesh.n_elements)
        assert np.abs(filt.apply(ones) - 1.0).max() < 1e-12

    def test_uniform_field_preserved(self, filt, mesh):
        c = 0.37
        out = filt.apply(np.full(mesh.n_elements, c))
        assert np.abs(out - c).max() < 1e-12

    def test_spike_matches_brute_force(self, mesh):
        r = 2.5 * mesh.Lx / mesh.nex
        f = build_filter(mesh, r)
        h_dense = brute_force_filter(mesh, r)
        spike = np.zeros(mesh.n_elements)
        center = mesh.n_elements // 2
        spike[center] = 1.0
        assert np.abs(f.apply(spike) - h_dense @ spike).max() < 1e-13

    def test_random_vector_matches_dense_oracle(self, filt, mesh, radius):
        h_dense = brute_force_filter(mesh, radius)
        rng = np.random.default_rng(1)
        x = rng.uniform(size=mesh.n_elements)
        assert np.abs(filt.apply(x) - h_dense @ x).max() < 1e-13

    def test_cutoff_at_radius(self, filt, mesh, radius):
        cents = mesh.element_centroids()
        h = filt.H.toarray()
        for i in range(0, mesh.n_elements, 7):
            far = np.hypot(*(cents - cents[i]).T) >= radius
            assert np.all(h[i, far] == 0.0)

    def test_apply_zero_and_one(self, filt, mesh):
        nel = mesh.n_elements
        assert np.all(filt.apply(np.zeros(nel)) == 0.0)
        assert np.abs(filt.apply(np.ones(nel)) - 1.0).max() < 1e-12

    def test_output_in_unit_range(self, filt, mesh):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=mesh.n_elements)
        y = filt.apply(x)
        assert y.min() >= -1e-12 and y.max() <= 1 + 1e-12

    def test_length_mismatch(self, filt):
        with pytest.raises(InvalidArgumentError):
            filt.apply(np.ones(3))
        with pytest.raises(InvalidArgumentError):
            filt.chain(np.ones(3))

    def test_chain_identity_filter(self, mesh):
        with pytest.warns(UserWarning):
            f = build_filter(mesh, 1e-9)
        s = np.random.default_rng(3).normal(size=mesh.n_elements)
        assert np.array_equal(f.chain(s), s)

    def test_chain_preserves_total_sensitivity(self, filt, mesh):
        s = np.full(mesh.n_elements, 0.123)
        assert filt.chain(s).sum() == pytest.approx(s.sum(), rel=1e-12)

    def test_chain_matches_dense_transpose(self, filt, mesh, radius):
        h_dense = brute_force_filter(mesh, radius)
        rng = np.random.default_rng(4)
        s = rng.normal(size=mesh.n_elements)
        assert np.abs(filt.chain(s) - h_dense.T @ s).max() < 1e-13


@st.composite
def filter_problems(draw):
    """A random mesh (independent lx, ly) and a radius of 0.3-6 columns."""
    nex = draw(st.integers(1, 12))
    ney = draw(st.integers(1, 8))
    lx = draw(st.floats(0.05, 2.0))
    ly = draw(st.floats(0.05, 2.0))
    columns = draw(st.floats(0.3, 6.0))
    return generate_mesh(nex, ney, lx, ly), columns * lx / nex


@st.composite
def wide_filter_problems(draw):
    """A random mesh and a radius of up to 1.5 mesh diagonals, so that some
    stencils are clipped on every side."""
    nex = draw(st.integers(1, 12))
    ney = draw(st.integers(1, 8))
    lx = draw(st.floats(0.05, 2.0))
    ly = draw(st.floats(0.05, 2.0))
    diagonals = draw(st.floats(0.05, 1.5))
    return generate_mesh(nex, ney, lx, ly), diagonals * np.hypot(lx, ly)


class TestFilterProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(filter_problems())
    def test_matches_brute_force(self, problem):
        mesh, r = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = build_filter(mesh, r)
        h_dense = brute_force_filter(mesh, r)
        x = np.random.default_rng(mesh.n_elements + 1).uniform(
            size=(mesh.n_elements, 3))
        assert np.abs(f.apply(x) - h_dense @ x).max() < 1e-13
        assert np.abs(f.apply(x[:, 0]) - h_dense @ x[:, 0]).max() < 1e-13
        assert "H" not in vars(f)
        assert f.H.has_canonical_format
        h = f.H.toarray()
        assert np.abs(h - h_dense).max() < 1e-13
        assert np.abs(h.sum(axis=1) - 1.0).max() < 1e-13
        cents = mesh.element_centroids()
        d = cents[:, None, :] - cents[None, :, :]
        assert not np.any(h[np.hypot(d[..., 0], d[..., 1]) >= r])
        s = np.random.default_rng(mesh.n_elements).normal(
            size=(mesh.n_elements, 3))
        assert np.abs(f.chain(s) - h_dense.T @ s).max() < 1e-13
        assert np.abs(f.chain(s[:, 0]) - h_dense.T @ s[:, 0]).max() < 1e-13

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(wide_filter_problems())
    def test_clipped_stencils_match_brute_force(self, problem):
        mesh, r = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = build_filter(mesh, r)
        h_dense = brute_force_filter(mesh, r)
        rng = np.random.default_rng(mesh.n_elements)
        x = rng.uniform(size=(mesh.n_elements, 3))
        s = rng.normal(size=(mesh.n_elements, 3))
        assert np.abs(f.apply(x) - h_dense @ x).max() < 1e-13
        assert np.abs(f.chain(s) - h_dense.T @ s).max() < 1e-13
        assert np.abs(f.chain(s[:, 1]) - h_dense.T @ s[:, 1]).max() < 1e-13
        assert "H" not in vars(f)


class TestNoStoredMatrix:
    """Runs never build the CSR matrix ``FilterOperator.H``."""

    @pytest.fixture
    def no_matrix(self, monkeypatch):
        def read(self):
            raise AssertionError("FilterOperator.H was read")
        monkeypatch.setattr(FilterOperator, "H", property(read))

    def test_optimization_does_not_read_h(self, no_matrix):
        result = driver.run_optimization(
            arch_config(nex=12, ney=6, max_iterations=3))
        assert len(result.log.records) == 3

    def test_gradient_check_does_not_read_h(self, no_matrix, capsys):
        code = cli.main(["gradient-check", "--config", "piston-3mat",
                         "--elements", "6x4"])
        assert code == 0, capsys.readouterr().out

    def test_paper_scale_filter_memory(self):
        cfg = load_config(builtin_config_path("piston-3mat"))
        mesh = generate_mesh(cfg.nex, cfg.ney, cfg.lx, cfg.ly)
        x = np.random.default_rng(5).uniform(size=(mesh.n_elements, 3))
        tracemalloc.start()
        try:
            f = build_filter(mesh, cfg.filter_radius)
            held = tracemalloc.get_traced_memory()[0]
            f.chain(f.apply(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 2 * 2**20
        assert peak < 16 * 2**20


class TestDesignField:
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_raw_rejected(self, filt, mesh, column):
        raw = np.full((mesh.n_elements, 2), 0.5)
        raw[3, column] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            DesignField(raw=raw, filtered=filt.apply(raw),
                        element_volumes=mesh.element_areas(), thickness=1e-3)

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_bad_volume_rejected(self, mesh, value):
        raw = np.full((mesh.n_elements, 2), 0.5)
        volumes = mesh.element_areas()
        volumes[3] = value
        with pytest.raises(InvalidArgumentError, match="volume"):
            DesignField(raw=raw, filtered=raw, element_volumes=volumes,
                        thickness=1e-3)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_thickness_rejected(self, mesh, value):
        raw = np.full((mesh.n_elements, 2), 0.5)
        with pytest.raises(InvalidArgumentError, match="thickness"):
            DesignField(raw=raw, filtered=raw,
                        element_volumes=mesh.element_areas(), thickness=value)

    def test_thickness_required(self, mesh):
        raw = np.full((mesh.n_elements, 2), 0.5)
        with pytest.raises(TypeError, match="thickness"):
            DesignField(raw=raw, filtered=raw,
                        element_volumes=mesh.element_areas())


class TestMaterialSet:
    def test_e_min_rule(self):
        mats = MaterialSet(e_moduli=(40e6, 100e6))
        assert mats.e_min == pytest.approx(40.0)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgumentError):
            MaterialSet(e_moduli=(100e6, 40e6))
        with pytest.raises(InvalidArgumentError):
            MaterialSet(e_moduli=(40e6, 40e6))

    def test_rejects_bad_poisson(self):
        with pytest.raises(InvalidArgumentError):
            MaterialSet(e_moduli=(1e6,), nu=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("overrides", [
        lambda v: {"thickness": v},
        lambda v: {"penalty": v},
        lambda v: {"nu": v},
        lambda v: {"e_moduli": (40e6, v)},
        lambda v: {"e_moduli": (v, 100e6)},
    ], ids=["thickness", "penalty", "nu", "stiffest", "softest"])
    def test_rejects_non_finite(self, overrides, value):
        with pytest.raises(InvalidArgumentError):
            MaterialSet(**{"e_moduli": (40e6, 100e6), **overrides(value)})


class TestInterpolation:
    mats2 = MaterialSet(e_moduli=(40e6, 100e6), penalty=3.0)
    mats3 = MaterialSet(e_moduli=(10e6, 40e6, 100e6), penalty=3.0)

    def test_pure_material_two(self):
        assert interpolate_modulus([1.0, 1.0], self.mats2) == pytest.approx(100e6)

    def test_pure_material_one(self):
        assert interpolate_modulus([1.0, 0.0], self.mats2) == pytest.approx(40e6)

    def test_void_phase(self):
        for r2 in (0.0, 0.3, 1.0):
            assert interpolate_modulus([0.0, r2], self.mats2) == pytest.approx(
                self.mats2.e_min
            )

    def test_half_half_hand_value(self):
        # (1-0.5^3) Emin + 0.5^3 ((1-0.5^3) 40e6 + 0.5^3 100e6)
        e = interpolate_modulus([0.5, 0.5], self.mats2)
        hand = 0.875 * 40.0 + 0.125 * (0.875 * 40e6 + 0.125 * 100e6)
        assert e == pytest.approx(hand, rel=1e-12)
        assert e == pytest.approx(5.9375e6, rel=1e-3)

    def test_two_phase_single_material(self):
        mats = MaterialSet(e_moduli=(40e6,), penalty=3.0)
        assert interpolate_modulus([1.0], mats) == pytest.approx(40e6)
        assert interpolate_modulus([0.0], mats) == pytest.approx(mats.e_min)
        e = interpolate_modulus([0.5], mats)
        assert e == pytest.approx((1 - 0.125) * mats.e_min + 0.125 * 40e6)

    def test_four_phase_corners(self):
        m = self.mats3
        assert interpolate_modulus([1, 1, 1], m) == pytest.approx(100e6)
        assert interpolate_modulus([1, 1, 0], m) == pytest.approx(40e6)
        assert interpolate_modulus([1, 0, 0.7], m) == pytest.approx(10e6)
        assert interpolate_modulus([0, 1, 1], m) == pytest.approx(m.e_min)

    def test_four_phase_nested_formula(self):
        m = self.mats3
        rng = np.random.default_rng(6)
        r = rng.uniform(0, 1, 3)
        p = 3.0
        rp = r**p
        inner = (1 - rp[2]) * 40e6 + rp[2] * 100e6
        mid = (1 - rp[1]) * 10e6 + rp[1] * inner
        expected = (1 - rp[0]) * m.e_min + rp[0] * mid
        assert interpolate_modulus(r, m) == pytest.approx(expected, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        r = rng.uniform(0, 1, size=(200, 2))
        e = interpolate_modulus(r, self.mats2)
        assert np.all(e >= self.mats2.e_min * (1 - 1e-12))
        assert np.all(e <= 100e6 * (1 + 1e-12))

    def test_monotone_in_topology_variable(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            r2 = rng.uniform()
            r1 = np.sort(rng.uniform(0, 1, 10))
            e = interpolate_modulus(np.column_stack([r1, np.full(10, r2)]),
                                    self.mats2)
            assert np.all(np.diff(e) >= -1e-9)

    def test_out_of_range_raises(self):
        with pytest.raises(InvalidArgumentError):
            interpolate_modulus([1.2, 0.3], self.mats2)
        with pytest.raises(InvalidArgumentError):
            modulus_derivatives([-0.2, 0.3], self.mats2)


class TestModulusDerivatives:
    mats2 = MaterialSet(e_moduli=(40e6, 100e6), penalty=3.0)
    mats3 = MaterialSet(e_moduli=(10e6, 40e6, 100e6), penalty=3.0)

    def test_zero_topology_kills_selection_derivative(self):
        d = modulus_derivatives([0.0, 0.6], self.mats2)
        assert d[1] == 0.0

    def test_selection_derivative_at_full_topology(self):
        r2 = 0.37
        d = modulus_derivatives([1.0, r2], self.mats2)
        assert d[1] == pytest.approx(3 * r2**2 * (100e6 - 40e6), rel=1e-12)

    def test_matches_finite_differences_1000_samples(self):
        # moduli of order one keep the central-difference noise floor below
        # the tolerance; the derivatives are linear in E, so this loses no
        # generality
        rng = np.random.default_rng(9)
        h = 1e-7
        for e_moduli in ((0.4, 1.0), (0.1, 0.4, 1.0)):
            mats = MaterialSet(e_moduli=e_moduli, penalty=3.0)
            m = mats.n_materials
            r = rng.uniform(0.05, 0.95, size=(1000 // m + 1, m))
            d = modulus_derivatives(r, mats)
            row_scale = np.abs(d).max(axis=1)
            for j in range(m):
                rp = r.copy()
                rp[:, j] += h
                rm = r.copy()
                rm[:, j] -= h
                fd = (interpolate_modulus(rp, mats)
                      - interpolate_modulus(rm, mats)) / (2 * h)
                assert (np.abs(fd - d[:, j]) / row_scale).max() < 1e-6


class TestVolumeMeasures:
    def test_zero_field(self, mesh):
        design = make_uniform_design(mesh, [0.0, 0.0])
        assert np.all(volume_measures(design) == 0.0)

    def test_uniform_field(self, mesh):
        design = make_uniform_design(mesh, [1.0, 0.1])
        g = volume_measures(design)
        assert g[0] == pytest.approx(1.0, abs=1e-13)
        assert g[1] == pytest.approx(0.1, abs=1e-13)

    def test_random_field_matches_direct_sum(self, mesh):
        rng = np.random.default_rng(10)
        raw = rng.uniform(0, 1, size=(mesh.n_elements, 2))
        design = make_uniform_design(mesh, [0.0, 0.0])
        design.filtered = raw
        v = design.element_volumes
        oracle = np.array(
            [sum(v[i] * raw[i, j] for i in range(mesh.n_elements)) / v.sum()
             for j in range(2)]
        )
        assert np.abs(volume_measures(design) - oracle).max() < 1e-13

    def test_linearity(self, mesh):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, size=(mesh.n_elements, 2))
        b = rng.uniform(0, 1, size=(mesh.n_elements, 2))
        design = make_uniform_design(mesh, [0.0, 0.0])
        alpha = 0.3
        design.filtered = a
        ga = volume_measures(design)
        design.filtered = b
        gb = volume_measures(design)
        design.filtered = alpha * a + (1 - alpha) * b
        gmix = volume_measures(design)
        assert np.abs(gmix - (alpha * ga + (1 - alpha) * gb)).max() < 1e-13


class TestPhaseDensities:
    def test_two_material_split(self):
        out = material_phase_densities(np.array([[0.8, 0.25]]))
        assert out[0, 0] == pytest.approx(0.8 * 0.75)
        assert out[0, 1] == pytest.approx(0.8 * 0.25)

    def test_three_material_split_sums_to_topology(self):
        rng = np.random.default_rng(12)
        r = rng.uniform(0, 1, size=(50, 3))
        out = material_phase_densities(r)
        assert np.abs(out.sum(axis=1) - r[:, 0]).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_material_count_must_match_columns(self, n):
        # one material on two columns would return rho1, and three an
        # IndexError
        r = np.array([[0.8, 0.25]])
        assert np.array_equal(material_phase_densities(r, 2),
                              material_phase_densities(r))
        with pytest.raises(InvalidArgumentError, match="for 2 columns"):
            material_phase_densities(r, n)


@st.composite
def material_designs(draw):
    """Ascending moduli, a penalty and rows of filtered design variables."""
    m = draw(st.integers(1, 4))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m))
    e_moduli = draw(st.floats(1e3, 1e9)) * np.cumprod(1.0 + np.asarray(steps))
    penalty = draw(st.floats(1.0, 5.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).uniform(0.0, 1.0, size=(30, m))
    rows[:10] = np.round(rows[:10])  # pure phases and mixes of 0 and 1
    return MaterialSet(e_moduli=tuple(e_moduli), penalty=penalty), rows


class TestInterpolationProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(material_designs(), st.data())
    def test_bounded_and_monotone(self, problem, data):
        mats, rows = problem
        e = interpolate_modulus(rows, mats)
        top = max(mats.e_moduli)
        # round-off of (1 - r^p) a + r^p b: a few ulps of the largest modulus
        ulps = 1e-14 * top
        assert np.all(e >= mats.e_min - ulps)
        assert np.all(e <= top + ulps)
        j = data.draw(st.integers(0, mats.n_materials - 1))
        higher = rows.copy()
        higher[:, j] = rows[:, j] + (1.0 - rows[:, j]) * data.draw(
            st.floats(0.0, 1.0))
        assert np.all(interpolate_modulus(higher, mats) >= e - ulps)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(material_designs())
    def test_phase_densities_partition_topology(self, problem):
        _, rows = problem
        phases = material_phase_densities(rows)
        assert phases.shape == rows.shape
        assert np.all((phases >= 0.0) & (phases <= 1.0))
        assert np.abs(phases.sum(axis=1) - rows[:, 0]).max() < 1e-15
