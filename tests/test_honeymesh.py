import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import (
    GeometryError,
    InvalidArgumentError,
    MeshError,
    PointOutsideElementError,
    builtin_config_names,
    generate_mesh,
    hex_quadrature,
    load_config,
    wachspress_gradients,
    wachspress_shape,
)

from presstopo.honeymesh import Mesh

from conftest import (
    boundary_edges,
    random_convex_hexagon,
    regular_hexagon,
    shipped_shape_mesh,
)


def shoelace_area(v):
    return 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1)
                        - np.roll(v[:, 0], -1) * v[:, 1])


class TestGenerateMesh:
    def test_single_hexagon(self):
        mesh = generate_mesh(1, 1, 1.0, 1.0)
        assert mesh.n_elements == 1
        assert mesh.n_nodes == 6
        assert np.allclose(mesh.nodes.min(axis=0), [0.0, 0.0], atol=1e-12)
        assert np.allclose(mesh.nodes.max(axis=0), [1.0, 1.0], atol=1e-12)

    def test_paper_scale_element_count(self):
        mesh = generate_mesh(200, 100, 0.2, 0.1)
        assert mesh.n_elements == 20000

    def test_interior_edges_shared_by_exactly_two(self, mesh_3x2):
        assert mesh_3x2.n_elements == 6
        bnd, count = boundary_edges(mesh_3x2)
        assert set(count.values()) <= {1, 2}
        interior = {e for e, c in count.items() if c == 2}
        assert len(interior) > 0
        assert len(bnd) + len(interior) == len(count)

    def test_shared_nodes_form_full_edges(self, mesh_3x2):
        # two elements sharing more than one node share exactly one edge
        els = mesh_3x2.elements
        for a in range(len(els)):
            for b in range(a + 1, len(els)):
                shared = set(els[a]) & set(els[b])
                if len(shared) < 2:
                    continue
                assert len(shared) == 2
                ia = [list(els[a]).index(n) for n in shared]
                assert (ia[0] - ia[1]) % 6 in (1, 5)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 14), st.integers(1, 9),
           st.sampled_from(("piston", "arch")))
    def test_connectivity_is_nonsingular(self, nex, ney, shape):
        # the paper's reason for hexagons: two elements that share a node
        # share a full edge, the two nodes that follow each other in both
        els = shipped_shape_mesh(nex, ney, shape).elements
        incidence = np.zeros((els.shape[0], els.max() + 1), dtype=int)
        np.put_along_axis(incidence, els, 1, axis=1)
        touching = np.argwhere(np.triu(incidence @ incidence.T, 1))
        for a, b in touching:
            for first, second in ((a, b), (b, a)):
                at = np.flatnonzero(np.isin(els[first], els[second]))
                assert at.size == 2
                assert (at[1] - at[0]) % 6 in (1, 5)

    def test_elements_counterclockwise_positive_area(self, mesh_5x4):
        for e in range(mesh_5x4.n_elements):
            assert shoelace_area(mesh_5x4.element_vertices(e)) > 0

    def test_six_distinct_nodes_per_element(self, mesh_5x4):
        for el in mesh_5x4.elements:
            assert len(set(el)) == 6

    def test_nodes_within_bounding_box(self, mesh_5x4):
        tol = 1e-12
        assert mesh_5x4.nodes[:, 0].min() >= -tol
        assert mesh_5x4.nodes[:, 0].max() <= mesh_5x4.Lx + tol
        assert mesh_5x4.nodes[:, 1].min() >= -tol
        assert mesh_5x4.nodes[:, 1].max() <= mesh_5x4.Ly + tol

    def test_areas_positive_and_sum(self, mesh_5x4):
        total = 0.0
        for e in range(mesh_5x4.n_elements):
            a = shoelace_area(mesh_5x4.element_vertices(e))
            assert a > 0
            total += a
        assert total == pytest.approx(mesh_5x4.element_areas().sum(), rel=1e-9)

    def test_boundary_edge_set_matches_once_used_edges(self, mesh_3x2):
        bnd, _ = boundary_edges(mesh_3x2)
        # every node of a once-used edge should be on the mesh outline:
        # it must belong to at most two elements
        from collections import Counter

        node_use = Counter(mesh_3x2.elements.ravel().tolist())
        for e in bnd:
            for n in e:
                assert node_use[n] <= 2

    def test_boundary_node_sets(self, mesh_5x4):
        sets = mesh_5x4.boundary_node_sets
        tol = 1e-9 * min(mesh_5x4.Lx, mesh_5x4.Ly)
        assert np.all(mesh_5x4.nodes[sets["left"], 0] <= tol)
        assert np.all(mesh_5x4.nodes[sets["right"], 0] >= mesh_5x4.Lx - tol)
        assert np.all(mesh_5x4.nodes[sets["bottom"], 1] <= tol)
        assert np.all(mesh_5x4.nodes[sets["top"], 1] >= mesh_5x4.Ly - tol)
        for key in ("left", "right", "bottom", "top"):
            assert len(sets[key]) > 0

    @pytest.mark.parametrize(
        "args", [(0, 5, 1.0, 1.0), (5, 0, 1.0, 1.0), (5, 5, 0.0, 1.0),
                 (5, 5, 1.0, -2.0), (3, 2, np.nan, 1.0), (3, 2, 1.0, np.inf),
                 (3, 2, np.inf, 1.0), (3, 2, 1.0, np.nan), (np.nan, 2, 1.0, 1.0),
                 (3, np.inf, 1.0, 1.0), (2.5, 2, 1.0, 1.0)]
    )
    def test_invalid_arguments(self, args):
        with pytest.raises(InvalidArgumentError):
            generate_mesh(*args)
        with pytest.raises(InvalidArgumentError):
            Mesh(*args)

    @pytest.mark.parametrize("nex", range(1, 9))
    @pytest.mark.parametrize("ney", range(1, 6))
    def test_boundary_node_sets_pairwise_disjoint(self, nex, ney):
        sets = list(generate_mesh(nex, ney, 1.0, 0.6).boundary_node_sets.values())
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                assert np.intersect1d(a, b).size == 0

    def test_mirror_pairs_odd_columns(self):
        mesh = generate_mesh(5, 3, 1.0, 0.6)
        perm = mesh.mirror_element_pairs()
        assert np.array_equal(np.sort(perm), np.arange(mesh.n_elements))
        cents = mesh.element_centroids()
        mirrored = np.column_stack([mesh.Lx - cents[:, 0], cents[:, 1]])
        assert np.allclose(cents[perm], mirrored, atol=1e-12)

    def test_mirror_pairs_even_columns_rejected(self, mesh_3x2):
        mesh = generate_mesh(4, 3, 1.0, 0.6)
        with pytest.raises(MeshError):
            mesh.mirror_element_pairs()


def unique_numbered_mesh(nex, ney, lx, ly):
    """Oracle: number the nodes by sorting every element's vertex keys.

    Returns nodes, elements, node lattice, boundary sets and centroids.
    """
    cols = np.repeat(np.arange(nex), ney)
    rows = np.tile(np.arange(ney), nex)
    kxc = 3 * cols + 2
    kyc = 2 * rows + 1 + (cols & 1)
    offsets = np.array([[2, 0], [1, 1], [-1, 1], [-2, 0], [-1, -1], [1, -1]])
    keys = np.column_stack([(kxc[:, None] + offsets[:, 0]).ravel(),
                            (kyc[:, None] + offsets[:, 1]).ravel()])
    lattice, inverse = np.unique(keys, axis=0, return_inverse=True)
    elements = inverse.reshape(-1, 6).astype(np.int64)
    kx_max, ky_max = lattice.max(axis=0)
    sx, sy = lx / kx_max, ly / ky_max
    nodes = np.column_stack([lattice[:, 0] * sx, lattice[:, 1] * sy])
    sets = {
        "left": np.flatnonzero(lattice[:, 0] == 0),
        "right": np.flatnonzero(lattice[:, 0] == kx_max),
        "bottom": np.flatnonzero(lattice[:, 1] == 0),
        "top": np.flatnonzero(lattice[:, 1] == ky_max),
    }
    centroids = np.column_stack([kxc * sx, kyc * sy])
    return nodes, elements, lattice, sets, centroids


class TestMeshProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 40), st.integers(1, 30), st.floats(1e-3, 10.0),
           st.floats(1e-3, 10.0))
    def test_matches_sorted_numbering(self, nex, ney, lx, ly):
        mesh = generate_mesh(nex, ney, lx, ly)
        nodes, elements, lattice, sets, centroids = unique_numbered_mesh(
            nex, ney, lx, ly)
        assert mesh.elements.dtype == np.int64
        assert mesh.elements.flags.c_contiguous
        assert np.array_equal(mesh.elements, elements)
        assert np.array_equal(mesh.node_lattice, lattice)
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.element_centroids(), centroids)
        assert mesh.boundary_node_sets.keys() == sets.keys()
        for key, expected in sets.items():
            assert np.array_equal(mesh.boundary_node_sets[key], expected)


def _congruence_meshes():
    meshes = {(2, 2, 0.2, 0.1), (5, 4, 0.2, 0.1), (12, 8, 0.2, 0.1),
              (61, 30, 0.2, 0.1), (7, 3, 1e-3, 5.0)}
    for name in builtin_config_names():
        cfg = load_config(name)
        meshes.add((cfg.nex, cfg.ney, cfg.lx, cfg.ly))
    return sorted(meshes)


class TestCongruence:
    """Every element is a translate of element 0, whose integrals all share."""

    @pytest.mark.parametrize("nex,ney,lx,ly", _congruence_meshes())
    def test_vertex_offsets_match_element_zero(self, nex, ney, lx, ly):
        mesh = generate_mesh(nex, ney, lx, ly)
        rel = mesh.nodes[mesh.elements] - mesh.element_centroids()[:, None, :]
        assert np.abs(rel - rel[0]).max() <= 1e-9 * mesh.element_width


class TestWachspress:
    def test_centroid_of_regular_hexagon(self):
        n = wachspress_shape(regular_hexagon(), (0.0, 0.0))
        assert np.allclose(n, 1.0 / 6.0, atol=1e-12)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        hexv = random_convex_hexagon(rng)
        for _ in range(20):
            p = 0.4 * rng.uniform(-1, 1, 2) * 0.5 + hexv.mean(axis=0) * 0.5
            n = wachspress_shape(hexv, p)
            assert abs(n.sum() - 1.0) < 1e-12
            assert np.all(n >= 0)

    def test_linear_reproduction_100_points(self):
        rng = np.random.default_rng(11)
        hexv = regular_hexagon()
        for _ in range(100):
            p = rng.uniform(-0.5, 0.5, 2)
            n = wachspress_shape(hexv, p)
            assert np.abs(n @ hexv - p).max() < 1e-12

    def test_point_outside_raises(self):
        hexv = regular_hexagon()
        with pytest.raises(PointOutsideElementError):
            wachspress_shape(hexv, (2.0, 0.0))
        with pytest.raises(PointOutsideElementError):
            wachspress_shape(hexv, (1.0, 0.0))  # on a vertex

    def test_nonconvex_raises(self):
        hexv = regular_hexagon()
        bad = hexv.copy()
        bad[2] = 0.8 * hexv.mean(axis=0) + 0.2 * hexv[2]  # dent one vertex
        with pytest.raises(GeometryError):
            wachspress_shape(bad, (0.0, 0.0))

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            hexv = random_convex_hexagon(rng)
            c = hexv.mean(axis=0)
            g = wachspress_gradients(hexv, c)
            assert np.abs(g.sum(axis=0)).max() < 1e-10

    def test_gradient_linear_consistency(self):
        rng = np.random.default_rng(6)
        hexv = random_convex_hexagon(rng)
        g = wachspress_gradients(hexv, hexv.mean(axis=0))
        ident = np.einsum("ad,ae->de", g, hexv)
        assert np.abs(ident - np.eye(2)).max() < 1e-10

    def test_gradients_rotate_with_hexagon_symmetry(self):
        hexv = regular_hexagon()
        g = wachspress_gradients(hexv, (0.0, 0.0))
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        rot = np.array([[c, -s], [s, c]])
        for a in range(6):
            assert np.allclose(g[(a + 1) % 6], rot @ g[a], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        hexv = random_convex_hexagon(rng)
        c = hexv.mean(axis=0)
        for _ in range(5):
            p = c + rng.uniform(-0.15, 0.15, 2)
            g = wachspress_gradients(hexv, p)
            h = 1e-6
            for d in range(2):
                step = np.zeros(2)
                step[d] = h
                fd = (wachspress_shape(hexv, p + step)
                      - wachspress_shape(hexv, p - step)) / (2 * h)
                scale = np.maximum(np.abs(g[:, d]), 1e-3 * np.abs(g).max())
                assert (np.abs(fd - g[:, d]) / scale).max() < 1e-5


class TestHexQuadrature:
    def test_weights_sum_to_regular_area(self):
        rule = hex_quadrature(regular_hexagon())
        assert rule.weights.sum() == pytest.approx(3 * np.sqrt(3) / 2, abs=1e-12)
        assert rule.weights.size == 18
        assert np.all(rule.weights > 0)

    def test_integrates_constants_on_random_hexagons(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            hexv = random_convex_hexagon(rng)
            rule = hex_quadrature(hexv)
            assert rule.weights.sum() == pytest.approx(
                shoelace_area(hexv), rel=1e-12
            )

    def test_centroid_from_first_moment(self):
        hexv = regular_hexagon(center=(0.3, -0.4))
        rule = hex_quadrature(hexv)
        moment = (rule.points * rule.weights[:, None]).sum(axis=0)
        centroid = moment / rule.weights.sum()
        # polygon centroid oracle
        v2 = np.roll(hexv, -1, axis=0)
        cr = hexv[:, 0] * v2[:, 1] - v2[:, 0] * hexv[:, 1]
        oracle = ((hexv + v2) * cr[:, None]).sum(axis=0) / (3 * cr.sum())
        assert np.abs(centroid - oracle).max() < 1e-12

    def test_points_strictly_inside(self):
        hexv = regular_hexagon()
        rule = hex_quadrature(hexv)
        for p in rule.points:
            wachspress_shape(hexv, p)  # raises if on/outside boundary

    def test_degenerate_raises(self):
        flat = np.column_stack([np.linspace(0, 1, 6), np.zeros(6)])
        with pytest.raises(GeometryError):
            hex_quadrature(flat)


class TestMeshQuadratureConsistency:
    def test_partition_and_linearity_at_all_quadrature_points(self, mesh_3x2):
        for e in range(mesh_3x2.n_elements):
            v = mesh_3x2.element_vertices(e)
            rule = hex_quadrature(v)
            for p in rule.points:
                n = wachspress_shape(v, p)
                g = wachspress_gradients(v, p)
                assert abs(n.sum() - 1.0) < 1e-10
                assert np.abs(n @ v - p).max() < 1e-10
                assert np.abs(g.sum(axis=0)).max() < 1e-10
