"""Honeycomb tessellation of rectangular domains and hexagonal element kernels.

The mesh is a structured honeycomb: ``nex`` columns of ``ney`` hexagons each.
Hexagons have two horizontal (flat) edges and pointed left/right vertices;
odd columns are shifted up by half an element height so that neighbouring
columns interlock edge-to-edge.  All nodes live on an integer half-step
lattice, which makes node numbering and symmetry pairings exact.

The whole tessellation is scaled anisotropically so its bounding box is
exactly ``Lx x Ly``; elements are congruent translates of one template
hexagon.  Shape functions are the rational Wachspress basis for convex
polygons, integrated with a centroid-fan triangle quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GeometryError,
    InvalidArgumentError,
    MeshError,
    PointOutsideElementError,
)

# Local vertex offsets of the template hexagon on the (kx, ky) half-step
# lattice, counter-clockwise starting from the right apex.
_VERTEX_OFFSETS = np.array(
    [[2, 0], [1, 1], [-1, 1], [-2, 0], [-1, -1], [1, -1]], dtype=np.int64
)

# Degree-2 Gauss rule on the reference triangle (barycentric coordinates).
_TRI_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)


def _cross2(a, b):
    """z-component of the cross product of stacked 2D vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class QuadratureRule:
    """Integration points (in element coordinates) and positive weights."""

    points: np.ndarray  # (nq, 2)
    weights: np.ndarray  # (nq,)


class Mesh:
    """Immutable honeycomb mesh of ``nex x ney`` hexagons on ``[0,Lx]x[0,Ly]``.

    Built in one pass over the half-step lattice: element (c, r) is centred
    at lattice point (3c+2, 2r+1+(c&1)) and its vertices are that point plus
    ``_VERTEX_OFFSETS``.  The vertex points are marked on a dense grid of the
    lattice, and the nodes are the marked points in row-major (kx, ky) order.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array of coordinates in metres.
    elements : (n_elements, 6) int64 array, counter-clockwise connectivity.
    node_lattice : (n_nodes, 2) int64 lattice point of each node.
    element_cols, element_rows : column and row of each element.
    nex, ney : element counts in x (columns) and y (per column).
    Lx, Ly : bounding-box dimensions in metres.
    boundary_node_sets : dict with keys 'left', 'right', 'bottom', 'top'.

    Every array is read-only.  The counts must be integers >= 1 and the
    dimensions positive and finite, or ``InvalidArgumentError`` is raised.
    """

    def __init__(self, nex, ney, lx, ly):
        if not all(1 <= n < np.inf and int(n) == n for n in (nex, ney)):
            raise InvalidArgumentError(
                f"element counts must be integers >= 1, got {nex}x{ney}")
        if not (0 < lx < np.inf and 0 < ly < np.inf):
            raise InvalidArgumentError(
                f"domain dimensions must be positive and finite, got {lx}x{ly}")
        self.nex, self.ney = int(nex), int(ney)
        self.Lx, self.Ly = float(lx), float(ly)
        cols = np.repeat(np.arange(self.nex, dtype=np.int64), self.ney)
        rows = np.tile(np.arange(self.ney, dtype=np.int64), self.nex)
        self.element_cols, self.element_rows = cols, rows
        self._centroid_lattice = np.column_stack(
            [3 * cols + 2, 2 * rows + 1 + (cols & 1)])
        kx = self._centroid_lattice[:, :1] + _VERTEX_OFFSETS[:, 0]
        ky = self._centroid_lattice[:, 1:] + _VERTEX_OFFSETS[:, 1]
        grid = np.zeros((3 * self.nex + 2, 2 * self.ney + 2), dtype=bool)
        grid[kx, ky] = True
        self.node_lattice = np.argwhere(grid)
        number = np.cumsum(grid, dtype=np.int64).reshape(grid.shape) - 1
        self.elements = number[kx, ky]

        kx_max, ky_max = self.node_lattice.max(axis=0).tolist()
        self._half_step = (self.Lx / kx_max, self.Ly / ky_max)
        self.nodes = self.node_lattice * np.array(self._half_step)
        self.boundary_node_sets = {
            "left": np.flatnonzero(self.node_lattice[:, 0] == 0),
            "right": np.flatnonzero(self.node_lattice[:, 0] == kx_max),
            "bottom": np.flatnonzero(self.node_lattice[:, 1] == 0),
            "top": np.flatnonzero(self.node_lattice[:, 1] == ky_max),
        }
        for arr in (self.nodes, self.elements, self.node_lattice,
                    self.element_cols, self.element_rows,
                    self._centroid_lattice, *self.boundary_node_sets.values()):
            arr.setflags(write=False)
        self._cache = {}

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def element_width(self):
        """Horizontal extent of one hexagon (apex to apex)."""
        return 4.0 * self._half_step[0]

    @property
    def element_height(self):
        """Vertical extent of one hexagon (flat edge to flat edge)."""
        return 2.0 * self._half_step[1]

    def element_vertices(self, index):
        """Vertex coordinates of one element, (6, 2), counter-clockwise."""
        return self.nodes[self.elements[index]]

    def element_centroids(self):
        """Centroids of all elements, (n_elements, 2)."""
        return self._centroid_lattice * np.array(self._half_step)

    def lattice_scales(self):
        """Physical size of one lattice half-step in x and y."""
        return self._half_step

    def element_areas(self):
        """Areas of all elements (identical for a honeycomb), (n_elements,)."""
        sx, sy = self._half_step
        return np.full(self.n_elements, 6.0 * sx * sy)

    def mirror_element_pairs(self):
        """Permutation mapping each element to its left-right mirror image.

        The staggered honeycomb is geometrically mirror-symmetric about the
        vertical midline only when ``nex`` is odd (mirroring maps columns
        ``i -> nex-1-i``, which preserves the column stagger parity only for
        odd column counts).
        """
        if self.nex % 2 == 0:
            raise MeshError(
                "mirror pairing requires an odd number of columns; a "
                f"{self.nex}-column staggered honeycomb has no exact "
                "left-right mirror symmetry"
            )
        return (self.nex - 1 - self.element_cols) * self.ney + self.element_rows


def generate_mesh(nex, ney, lx, ly):
    """The honeycomb ``Mesh`` of ``nex x ney`` hexagons on ``[0,Lx]x[0,Ly]``,
    built and checked by ``Mesh`` itself."""
    return Mesh(nex, ney, lx, ly)


def _check_convex(vertices):
    """Validate a counter-clockwise strictly convex hexagon; return edges."""
    v = np.asarray(vertices, dtype=float)
    if v.shape != (6, 2):
        raise InvalidArgumentError(f"expected 6 vertices, got shape {v.shape}")
    edges = np.roll(v, -1, axis=0) - v
    corner = _cross2(np.roll(edges, 1, axis=0), edges)
    scale = float(np.abs(edges).max()) ** 2
    if scale == 0.0 or np.any(corner <= 1e-14 * scale):
        raise GeometryError("element is degenerate or not strictly convex")
    return v, edges, corner


def _wachspress(vertices, points, with_gradients):
    """Wachspress basis (and optionally gradients) at one or more points."""
    v, edges, corner = _check_convex(vertices)
    pts = np.atleast_2d(np.asarray(points, dtype=float))

    # a[q, i]: twice the signed area of triangle (v_i, v_{i+1}, x_q);
    # positive strictly inside the convex polygon.
    rel = pts[:, None, :] - v[None, :, :]
    a = _cross2(edges[None, :, :], rel)
    scale = float(np.abs(edges).max()) ** 2
    if np.any(a <= 1e-14 * scale):
        raise PointOutsideElementError(
            "evaluation point lies on or outside the element boundary"
        )

    w = corner[None, :] / (np.roll(a, 1, axis=1) * a)
    n = w / w.sum(axis=1, keepdims=True)
    if not with_gradients:
        return n, None

    # grad a_i is constant: the edge vector rotated by +90 degrees.
    grad_a = np.column_stack([-edges[:, 1], edges[:, 0]])
    # r[q, i, :] = -grad(log w_i) = grad a_{i-1}/a_{i-1} + grad a_i/a_i
    r = (np.roll(grad_a, 1, axis=0)[None] / np.roll(a, 1, axis=1)[:, :, None]
         + grad_a[None] / a[:, :, None])
    r_mean = np.einsum("qi,qid->qd", n, r)
    grad_n = n[:, :, None] * (r_mean[:, None, :] - r)
    return n, grad_n


def wachspress_shape(element_vertices, point):
    """Wachspress basis values N_1..N_6 at a point strictly inside the hexagon.

    The values are non-negative, sum to one, and reproduce linear fields
    (sum N_a x_a = x).  Raises ``GeometryError`` for non-convex elements and
    ``PointOutsideElementError`` for points on or outside the boundary.
    """
    return _wachspress(element_vertices, point, with_gradients=False)[0][0]


def wachspress_gradients(element_vertices, point):
    """Gradients of the Wachspress basis at a point, (6, 2).

    Satisfies sum_a grad N_a = 0 and sum_a grad N_a (x) x_a = identity.
    """
    return _wachspress(element_vertices, point, with_gradients=True)[1][0]


def hex_quadrature(element_vertices):
    """Quadrature rule for a convex hexagon.

    Fans the hexagon into 6 triangles about its area centroid and applies the
    3-point degree-2 Gauss rule on each (18 points); weights are positive and
    sum to the polygon area.  The rule is not exact for the rational Wachspress
    integrands, but the fan layout preserves the element's point symmetry.
    """
    v, _, _ = _check_convex(element_vertices)
    v_next = np.roll(v, -1, axis=0)
    cross = _cross2(v, v_next)
    area = 0.5 * cross.sum()
    if area <= 0.0:
        raise GeometryError("element has non-positive area")
    centroid = ((v + v_next) * cross[:, None]).sum(axis=0) / (6.0 * area)

    tri_area = 0.5 * _cross2(v - centroid, v_next - centroid)
    if np.any(tri_area <= 0.0):
        raise GeometryError("centroid fan produced a degenerate triangle")
    corners = np.stack(
        [np.broadcast_to(centroid, v.shape), v, v_next], axis=1
    )  # (6, 3, 2)
    points = np.einsum("gb,tbd->tgd", _TRI_BARY, corners).reshape(-1, 2)
    weights = np.repeat(tri_area / 3.0, 3)
    return QuadratureRule(points=points, weights=weights)
