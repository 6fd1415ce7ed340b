"""Design variables, density filter, and extended SIMP material interpolation.

Each element carries one design variable per candidate material: the first
column is the topology variable (solid/void), the remaining columns select
among materials.  Young's modulus is interpolated by nesting penalized
densities:

    two-phase    E = (1 - r1^p) Emin + r1^p E1
    three-phase  E = (1 - r1^p) Emin + r1^p ((1 - r2^p) E1 + r2^p E2)
    four-phase   E = ... + r1^p r2^p-nested selection of (E2, E3)

All columns are smoothed by the same linear density filter H, a row-stochastic
sparse matrix of conic weights over element centroids.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
    pinned at 1e-6 times the softest candidate.
    """

    e_moduli: tuple
    nu: float = 0.40
    thickness: float = 0.001
    penalty: float = 3.0

    def __post_init__(self):
        e = tuple(float(x) for x in self.e_moduli)
        object.__setattr__(self, "e_moduli", e)
        if not e or any(x <= 0 for x in e):
            raise InvalidArgumentError("Young's moduli must be positive")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise InvalidArgumentError("Young's moduli must be strictly ascending")
        if not 0.0 <= self.nu < 0.5:
            raise InvalidArgumentError(f"Poisson ratio out of range: {self.nu}")
        if self.thickness <= 0 or self.penalty <= 0:
            raise InvalidArgumentError("thickness and penalty must be positive")

    @property
    def e_min(self):
        return 1e-6 * min(self.e_moduli)

    @property
    def n_materials(self):
        return len(self.e_moduli)


class FilterOperator:
    """Row-stochastic density filter H built once per mesh and radius."""

    def __init__(self, matrix, r_fill):
        self.H = matrix.tocsr()
        self.r_fill = float(r_fill)
        self._HT = self.H.T.tocsr()

    @property
    def n_elements(self):
        return self.H.shape[0]

    def _rows(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != self.n_elements:
            raise InvalidArgumentError(
                f"expected {self.n_elements} rows, got shape {values.shape}"
            )
        return values

    def apply(self, raw):
        """Filtered design H @ raw, for one column (n,) or columns (n, m)."""
        return self.H @ self._rows(raw)

    def chain(self, d_filtered):
        """Back-propagated sensitivity H^T @ d_filtered, (n,) or (n, m)."""
        return self._HT @ self._rows(d_filtered)


def build_filter(mesh, r_fill) -> FilterOperator:
    """Density filter with conic weights w = max(0, 1 - d/r) over centroids.

    Weights are volume-scaled and normalized row-wise, so constants are
    preserved exactly.  Distances are evaluated from the mesh's integer
    centroid lattice, which makes the weights of congruent element pairs
    bitwise identical.  A radius too small to reach any neighbour degenerates
    the filter to the identity (warned, not an error).
    """
    if r_fill <= 0:
        raise InvalidArgumentError(f"filter radius must be positive, got {r_fill}")
    nel = mesh.n_elements
    sx, sy = mesh.lattice_scales()
    volumes = mesh.element_areas()
    col = mesh.element_cols
    row = mesh.element_rows
    ids = np.arange(nel)

    # centroid lattice pitch: columns differ by 3 in kx, rows by 2 in ky;
    # a column-parity change shifts ky by one extra half-step.
    max_di = int(r_fill / (3.0 * sx))
    max_dj = int(r_fill / (2.0 * sy)) + 1

    rows_out, cols_out, vals_out = [], [], []

    def _add(source_mask, di, dj, weight):
        sel = source_mask & (col + di >= 0) & (col + di < mesh.nex)
        sel &= (row + dj >= 0) & (row + dj < mesh.ney)
        src = ids[sel]
        dst = src + di * mesh.ney + dj
        rows_out.append(src)
        cols_out.append(dst)
        vals_out.append(weight * volumes[dst])

    everywhere = np.ones(nel, dtype=bool)
    for di in range(-max_di, max_di + 1):
        dx = 3.0 * di * sx
        for dj in range(-max_dj, max_dj + 1):
            if di % 2 == 0:
                dist = np.hypot(dx, 2.0 * dj * sy)
                if dist < r_fill:
                    _add(everywhere, di, dj, 1.0 - dist / r_fill)
            else:
                # moving to a column of opposite parity shifts ky by +-1
                for parity in (0, 1):
                    dky = 2 * dj + (1 - 2 * parity)
                    dist = np.hypot(dx, dky * sy)
                    if dist < r_fill:
                        _add((col & 1) == parity, di, dj, 1.0 - dist / r_fill)

    w_matrix = sp.coo_matrix(
        (np.concatenate(vals_out),
         (np.concatenate(rows_out), np.concatenate(cols_out))),
        shape=(nel, nel),
    ).tocsr()
    row_sums = np.asarray(w_matrix.sum(axis=1)).ravel()
    h = sp.diags(1.0 / row_sums) @ w_matrix
    if h.nnz == nel:
        warnings.warn(
            "filter radius smaller than the centroid spacing; "
            "the density filter degenerates to the identity",
            stacklevel=2,
        )
    return FilterOperator(h, r_fill)


@dataclass
class DesignField:
    """Raw and filtered design variables plus element volumes.

    ``raw`` and ``filtered`` are (n_elements, m) with m design variables per
    element (one per candidate material); volumes are element area times the
    out-of-plane thickness.
    """

    raw: np.ndarray
    filtered: np.ndarray
    element_volumes: np.ndarray
    thickness: float = field(default=1.0)

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
        if np.any(self.element_volumes <= 0):
            raise InvalidArgumentError("element volumes must be positive")

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
    Returns (n_elements, m).
    """
    rho = np.atleast_2d(np.asarray(filtered, dtype=float))
    m = rho.shape[1] if n_materials is None else int(n_materials)
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
