"""Design variables, density filter, and extended SIMP material interpolation.

Each element carries one design variable per candidate material: the first
column is the topology variable (solid/void), the remaining columns select
among materials.  Young's modulus is interpolated by nesting penalized
densities:

    two-phase    E = (1 - r1^p) Emin + r1^p E1
    three-phase  E = (1 - r1^p) Emin + r1^p ((1 - r2^p) E1 + r2^p E2)
    four-phase   E = ... + r1^p r2^p-nested selection of (E2, E3)

All columns are smoothed by the same linear density filter H = D^-1 W, a
row-stochastic operator of conic weights over element centroids.  The
centroids sit on an integer lattice, so W is one translation-invariant
stencil of weights, clipped at the mesh's edges, and D holds its row sums.
``FilterOperator`` applies it as a lattice correlation through ``numpy.fft``
and builds the sparse matrix H only if something reads it.  The weights carry
no element volume: all honeycomb elements have the same area, so it would
cancel.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError

_RANGE_TOL = 1e-9


def _check_unit_range(values, what):
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError(f"{what} must be finite")
    if v.size and (v.min() < -_RANGE_TOL or v.max() > 1.0 + _RANGE_TOL):
        raise InvalidArgumentError(
            f"{what} must lie in [0, 1], got range [{v.min()}, {v.max()}]"
        )
    return np.clip(v, 0.0, 1.0)


@dataclass(frozen=True)
class MaterialSet:
    """Candidate materials sharing Poisson's ratio; only E is interpolated.

    ``e_moduli`` must be strictly positive and ascending; the void modulus is
    pinned at 1e-6 times the softest candidate.  ``driver.make_design``
    copies ``thickness`` into the ``DesignField`` that the analysis reads.
    """

    e_moduli: tuple
    nu: float = 0.40
    thickness: float = 0.001
    penalty: float = 3.0

    def __post_init__(self):
        e = tuple(float(x) for x in self.e_moduli)
        object.__setattr__(self, "e_moduli", e)
        if not e or not all(0 < x < np.inf for x in e):
            raise InvalidArgumentError("Young's moduli must be positive and finite")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise InvalidArgumentError("Young's moduli must be strictly ascending")
        if not 0.0 <= self.nu < 0.5:
            raise InvalidArgumentError(f"Poisson ratio out of range: {self.nu}")
        if not (0 < self.thickness < np.inf and 0 < self.penalty < np.inf):
            raise InvalidArgumentError(
                "thickness and penalty must be positive and finite")

    @property
    def e_min(self):
        return 1e-6 * min(self.e_moduli)

    @property
    def n_materials(self):
        return len(self.e_moduli)


class FilterOperator:
    """Row-stochastic density filter H = D^-1 W, applied as a lattice
    correlation.

    ``dc``, ``dky`` and ``weight`` are ``build_filter``'s stencil: W weighs
    the neighbour at dc columns and dky half-steps in y by the same weight
    around every element, and D holds W's row sums, the stencil clipped at
    the mesh's edges.  Element (c, r) sits at cell (c, 2r + (c & 1)) of a
    zero grid that the stencil's reach pads, so the circular correlation of
    ``numpy.fft`` never wraps onto an element; the design's columns are the
    grid's leading axis.  The stencil is point-symmetric, so W is symmetric:
    ``apply`` is W x / D and ``chain`` is H^T d = W (d / D).  A one-entry
    stencil is applied as the identity, exactly.  ``H``, the CSR matrix of
    the same stencil, is written only when something reads it; no run does.
    """

    def __init__(self, mesh, dc, dky, weight):
        self._mesh = mesh
        self._stencil = dc, dky, weight
        self.n_elements = mesh.n_elements
        self._grid = (mesh.nex + int(dc.max()), 2 * mesh.ney + int(dky.max()))
        cols = mesh.element_cols
        self._cells = cols * self._grid[1] + 2 * mesh.element_rows + (cols & 1)
        self._kernel, self._row_sums = None, 1.0
        if weight.size > 1:
            kernel = np.zeros(self._grid)
            kernel[dc, dky] = weight  # negative offsets wrap around
            # the transform of a point-symmetric kernel is real
            self._kernel = np.fft.rfft2(kernel).real
            self._row_sums = self._correlate(np.ones((1, self.n_elements)))

    def _columns(self, values):
        """Checked values as columns (m, n_elements), and their shape."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != self.n_elements:
            raise InvalidArgumentError(
                f"expected {self.n_elements} rows, got shape {values.shape}"
            )
        return values.reshape(self.n_elements, -1).T, values.shape

    def _correlate(self, columns):
        """W applied to each row of ``columns``, (m, n_elements)."""
        if self._kernel is None:
            return columns
        m = columns.shape[0]
        grid = np.zeros((m, *self._grid))
        grid.reshape(m, -1)[:, self._cells] = columns
        grid = np.fft.irfft2(np.fft.rfft2(grid) * self._kernel, s=self._grid)
        return grid.reshape(m, -1)[:, self._cells]

    def apply(self, raw):
        """Filtered design H @ raw, for one column (n,) or columns (n, m)."""
        columns, shape = self._columns(raw)
        out = self._correlate(columns) / self._row_sums
        return np.ascontiguousarray(out.T).reshape(shape)

    def chain(self, d_filtered):
        """Back-propagated sensitivity H^T @ d_filtered, (n,) or (n, m)."""
        columns, shape = self._columns(d_filtered)
        out = self._correlate(columns / self._row_sums)
        return np.ascontiguousarray(out.T).reshape(shape)

    @functools.cached_property
    def H(self):
        """H as a canonical CSR matrix, written from the stencil on first
        read.  In (dc, dky) order an element's neighbours have ascending
        indices, so the arrays are written as found."""
        mesh = self._mesh
        dc, dky, weight = self._stencil
        nex, ney = mesh.nex, mesh.ney
        # the row step of each entry from an even (0) and from an odd (1) column
        parity = np.arange(2, dtype=np.int32)[:, None]
        drow = (dky + parity - ((parity + dc) & 1)) // 2
        # int32 is the CSR index type; it also halves the (elements x stencil)
        # temporaries
        col = mesh.element_cols.astype(np.int32)
        to_col = col[:, None] + dc
        to_row = mesh.element_rows.astype(np.int32)[:, None] + drow[col & 1]
        inside = (to_col >= 0) & (to_col < nex) & (to_row >= 0) & (to_row < ney)
        indices = (to_col * ney + to_row)[inside]
        indptr = np.zeros(self.n_elements + 1, dtype=np.int32)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        data = np.broadcast_to(weight, inside.shape)[inside]
        data /= np.repeat(np.add.reduceat(data, indptr[:-1]), np.diff(indptr))
        return sp.csr_matrix((data, indices, indptr),
                             shape=(self.n_elements,) * 2)


def build_filter(mesh, r_fill) -> FilterOperator:
    """Density filter with conic weights w = max(0, 1 - d/r) over centroids.

    A column step moves a centroid 3 lattice half-steps in x and an odd
    column sits one half-step higher, so every neighbour is at an offset
    (dc, dky) of dc columns and dky half-steps in y with dky = dc (mod 2).
    One stencil of these offsets and their weights, computed from the
    integer offsets, serves every element, so congruent pairs get
    bitwise-identical weights.  The stencil is clipped to the mesh's extent,
    which bounds the lattice that ``FilterOperator`` correlates for any
    radius.  Rows are normalised by their sums, so constants are preserved
    to round-off.  There is no volume weight: every element has the same
    area (``TestCongruence``), so it would cancel.  A radius too small to
    reach any neighbour degenerates the filter to the identity (warned, not
    an error).
    """
    if not 0.0 < r_fill < np.inf:
        raise InvalidArgumentError(
            f"filter radius must be positive and finite, got {r_fill}")
    sx, sy = mesh.lattice_scales()
    max_dc = min(int(r_fill / (3.0 * sx)), mesh.nex - 1)
    max_dky = min(int(r_fill / sy), 2 * mesh.ney - 1)
    dc, dky = np.mgrid[-max_dc:max_dc + 1, -max_dky:max_dky + 1].reshape(2, -1)
    dist = np.hypot(3.0 * dc * sx, dky * sy)
    keep = ((dc - dky) % 2 == 0) & (dist < r_fill)
    if np.count_nonzero(keep) == 1:
        warnings.warn(
            "filter radius smaller than the centroid spacing; "
            "the density filter degenerates to the identity",
            stacklevel=2,
        )
    return FilterOperator(mesh, dc[keep].astype(np.int32),
                          dky[keep].astype(np.int32), 1.0 - dist[keep] / r_fill)


@dataclass
class DesignField:
    """Raw and filtered design variables, element volumes and thickness.

    ``raw`` and ``filtered`` are (n_elements, m) with m design variables per
    element (one per candidate material); volumes are element area times the
    out-of-plane ``thickness``, the one that the loads, the stiffness and its
    sensitivity are built with.  Both must be positive and finite.
    """

    raw: np.ndarray
    filtered: np.ndarray
    element_volumes: np.ndarray
    thickness: float

    def __post_init__(self):
        self.raw = np.atleast_2d(np.asarray(self.raw, dtype=float))
        self.filtered = np.atleast_2d(np.asarray(self.filtered, dtype=float))
        if self.raw.shape != self.filtered.shape:
            raise InvalidArgumentError("raw and filtered shapes differ")
        self.raw = _check_unit_range(self.raw, "raw design variables")
        self.filtered = _check_unit_range(self.filtered, "filtered design variables")
        self.element_volumes = np.asarray(self.element_volumes, dtype=float)
        if self.element_volumes.shape != (self.raw.shape[0],):
            raise InvalidArgumentError("element volume vector has wrong length")
        if not np.all((self.element_volumes > 0)
                      & (self.element_volumes < np.inf)):
            raise InvalidArgumentError(
                "element volumes must be positive and finite")
        if not 0 < self.thickness < np.inf:
            raise InvalidArgumentError("thickness must be positive and finite")

    @property
    def n_elements(self):
        return self.raw.shape[0]

    @property
    def n_variables(self):
        return self.raw.shape[1]


def _nested_moduli(design, materials: MaterialSet):
    """Checked rows (n, m), whether one row was given, rho^p, and nested[j],
    the modulus selected by variables j.. (nested[1] excludes the void)."""
    rho = _check_unit_range(design, "filtered design")
    single = rho.ndim == 1
    rho = np.atleast_2d(rho)
    m = rho.shape[1]
    if m != materials.n_materials:
        raise InvalidArgumentError(
            f"design has {m} variables but material set has "
            f"{materials.n_materials} candidates"
        )
    e = materials.e_moduli
    rp = rho**materials.penalty
    # innermost pair first: selection between the two stiffest candidates
    nested = [None] * (m + 1)
    nested[m] = np.full(rho.shape[0], e[-1])
    for j in range(m - 1, 0, -1):
        nested[j] = (1.0 - rp[:, j]) * e[j - 1] + rp[:, j] * nested[j + 1]
    return rho, single, rp, nested


def interpolate_modulus(design, materials: MaterialSet):
    """Interpolated Young's modulus for filtered design rows.

    Accepts one row (m,) or a matrix (n, m); returns a scalar or (n,) array in
    [e_min, max modulus].
    """
    _, single, rp, nested = _nested_moduli(design, materials)
    out = (1.0 - rp[:, 0]) * materials.e_min + rp[:, 0] * nested[1]
    return float(out[0]) if single else out


def modulus_derivatives(design, materials: MaterialSet):
    """Partial derivatives of ``interpolate_modulus`` w.r.t. each variable.

    Same input conventions; returns (m,) or (n, m).
    """
    rho, single, rp, nested = _nested_moduli(design, materials)
    p = materials.penalty
    e = materials.e_moduli
    dr = p * rho ** (p - 1.0)
    out = np.empty_like(rho)
    out[:, 0] = dr[:, 0] * (nested[1] - materials.e_min)
    prefix = rp[:, 0].copy()
    for j in range(1, rho.shape[1]):
        out[:, j] = prefix * dr[:, j] * (nested[j + 1] - e[j - 1])
        prefix = prefix * rp[:, j]
    return out[0] if single else out


def material_phase_densities(filtered, n_materials=None):
    """Physical density of each material phase from nested selection variables.

    For variables (r1, r2, ..., rm): material 1 has density r1(1-r2),
    material 2 has r1 r2 (1-r3), ..., material m has r1 r2 ... rm.
    Returns (n_elements, m).  ``n_materials``, when given, must equal m, or
    ``InvalidArgumentError`` is raised.
    """
    rho = np.atleast_2d(np.asarray(filtered, dtype=float))
    m = rho.shape[1]
    if n_materials not in (None, m):
        raise InvalidArgumentError(f"{n_materials} materials for {m} columns")
    out = np.empty((rho.shape[0], m))
    prefix = rho[:, 0].copy()
    for j in range(m):
        if j < m - 1:
            out[:, j] = prefix * (1.0 - rho[:, j + 1])
            prefix = prefix * rho[:, j + 1]
        else:
            out[:, j] = prefix
    return out


def volume_measures(design: DesignField):
    """Volume fraction of each design-variable column, (m,).

    g_j = sum_i v_i rho~_ij / sum_i v_i; the first entry measures the total
    solid fraction, later entries the nested material-selection fractions.
    """
    v = design.element_volumes
    return (v[:, None] * design.filtered).sum(axis=0) / v.sum()
