"""Output checks for the benchmark workloads.

Every check is computed by the benchmark apart from the program, with its own
linear algebra on the returned matrices and fields, or tests a property the
method must have.  None compares against a stored copy of earlier output.
A check returns ``(passed, detail)``; a check that raises counts as failed.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
from numpy.linalg import norm

from presstopo import driver, fields

ELASTIC_TOL = 1e-9      # relative residual of K_ff u_f = F_f
PRESSURE_TOL = 1e-10    # residual of the free pressure rows against their right side
OUTPUT_FILES = ("convergence.csv", "design.csv", "final.vtk", "final.svg")


def elastic_residual(r, written):
    """||K_ff u_f - F_f|| / ||F_f|| <= 1e-9, with u = 0 on supported DOFs."""
    K, u, F = r.elastic.K, r.elastic.u, r.elastic.F
    fixed = np.asarray(r.elastic.fixed_dofs, dtype=np.int64)
    free = np.ones(u.size, dtype=bool)
    free[fixed] = False
    res = norm((K @ u)[free] - F[free]) / norm(F[free])
    pinned = float(np.abs(u[fixed]).max()) if fixed.size else np.inf
    return (res <= ELASTIC_TOL and pinned == 0.0,
            f"residual {res:.2e}, max |u| on supports {pinned:.1e}")


def pressure_residual(r, written):
    """||(A p)_free|| / ||(A_fd p_d)|| <= 1e-10; p exact on Dirichlet nodes.

    Dirichlet nodes come from the config's named edges, not from the state.
    """
    A, p = r.pressure.A, r.pressure.p
    dirichlet = np.zeros(p.size, dtype=bool)
    off = 0.0
    for edge, value in r.config.pressure_bc.items():
        nodes = r.mesh.boundary_node_sets[edge]
        dirichlet[nodes] = True
        off = max(off, float(np.abs(p[nodes] - value).max()))
    fixed = np.flatnonzero(dirichlet)
    rhs = norm((A[:, fixed] @ p[fixed])[~dirichlet])
    res = norm((A @ p)[~dirichlet]) / rhs
    return (res <= PRESSURE_TOL and off == 0.0,
            f"residual {res:.2e}, max Dirichlet error {off:.1e} Pa")


def load_transform(r, written):
    """F = -T p."""
    F = r.elastic.F
    gap = norm(F + r.pressure.T @ r.pressure.p) / norm(F)
    return gap <= 1e-12, f"||F + T p|| / ||F|| = {gap:.1e}"


def compliance_identity(r, written):
    """c = u.F = u.K u, and c > 0."""
    K, u, F = r.elastic.K, r.elastic.u, r.elastic.F
    c = r.elastic.compliance
    d_uf = abs(c - u @ F) / abs(c)
    d_uku = abs(c - u @ (K @ u)) / abs(c)
    return (c > 0 and d_uf <= 1e-10 and d_uku <= 1e-8,
            f"c = {c:.6e}, |c - u.F|/c = {d_uf:.1e}, |c - u.Ku|/c = {d_uku:.1e}")


def equilibrium(r, written):
    """sum(K u) ~ 0 in each direction: translations lie in the null space of K."""
    ku = r.elastic.K @ r.elastic.u
    worst = max(abs(ku[d::2].sum()) / np.abs(ku[d::2]).sum() for d in (0, 1))
    return worst <= 1e-9, f"|sum (Ku)_d| / sum |(Ku)_d| <= {worst:.1e}"


def pressure_bounds(r, written):
    """Discrete maximum principle: p_out <= p <= p_in."""
    p = r.pressure.p
    lo, hi = min(r.config.pressure_bc.values()), max(r.config.pressure_bc.values())
    tol = 1e-9 * (hi - lo)
    return (p.min() >= lo - tol and p.max() <= hi + tol,
            f"p in [{p.min():.6g}, {p.max():.6g}] Pa, bounds [{lo:g}, {hi:g}]")


def densities(r, written):
    """Raw, filtered and phase densities in [0, 1]; phases sum to rho1."""
    raw, filt = r.design.raw, r.design.filtered
    phases = fields.material_phase_densities(filt, filt.shape[1])
    in_range = all(a.min() >= 0.0 and a.max() <= 1.0 for a in (raw, filt, phases))
    gap = float(np.abs(phases.sum(axis=1) - filt[:, 0]).max())
    return in_range and gap <= 1e-12, f"in [0,1]: {in_range}, |sum - rho1| = {gap:.1e}"


def design_csv_roundtrip(r, written):
    """design.csv reloads through driver.read_design_csv to the raw design."""
    path = next(p for p in written if Path(p).name == "design.csv")
    back = driver.read_design_csv(path, *r.design.raw.shape)
    diff = float(np.abs(back - r.design.raw).max())
    return diff == 0.0, f"max reload difference {diff:.1e}"


def compliance_decreases(r, written):
    """The last iteration's compliance is below the first."""
    first, last = r.log.records[0].compliance, r.log.records[-1].compliance
    return last < first, f"c(last)/c(1) = {last / first:.4f}"


def iterations_complete(r, written):
    """The run made every configured iteration."""
    n = len(r.log.records)
    return n == r.config.max_iterations, f"{n} of {r.config.max_iterations}"


def outputs_written(r, written):
    """All four result files exist and are not empty."""
    sizes = {Path(p).name: Path(p).stat().st_size for p in written}
    ok = all(sizes.get(name, 0) > 0 for name in OUTPUT_FILES)
    return ok, f"{sum(sizes.values())} bytes in {sorted(sizes)}"


def constraints_active(r, written):
    """Every volume measure within 1e-3 of its bound at iteration 100 and at the end."""
    bounds = r.config.constraint_bounds
    g100 = np.asarray(r.log.records[99].volume_measures)
    v = r.design.element_volumes
    g_end = v @ r.design.filtered / v.sum()
    gap = max(np.abs(g100 - bounds).max(), np.abs(g_end - bounds).max())
    return gap <= 1e-3, f"max |g - bound| = {gap:.1e}"


def compliance_drop(r, written):
    """c(100) / c(5) < 0.25."""
    ratio = r.log.records[99].compliance / r.log.records[4].compliance
    return ratio < 0.25, f"c(100)/c(5) = {ratio:.4f}"


def mirror_symmetry(r, written):
    """Raw design mirror-symmetric within 1e-6 under Mesh.mirror_element_pairs."""
    perm = r.mesh.mirror_element_pairs()
    asym = float(np.abs(r.design.raw - r.design.raw[perm]).max())
    return asym <= 1e-6, f"max asymmetry {asym:.1e}"


def exit_code(run, written):
    """gradient-check exits with code 0."""
    code, _ = run
    return code == 0, f"exit code {code}"


def fd_agreement(run, written):
    """Adjoint agrees with central finite differences within 1e-4."""
    _, text = run
    err = float(re.search(r"max relative error\s+(\S+)", text).group(1))
    checked, total = map(int, re.search(
        r"components checked\s+(\d+) / (\d+)", text).groups())
    return (err <= 1e-4 and checked > 0,
            f"max relative error {err:.2e} over {checked}/{total} components")


OPTIMISATION = (elastic_residual, pressure_residual, load_transform,
                compliance_identity, equilibrium, pressure_bounds, densities,
                design_csv_roundtrip, compliance_decreases,
                iterations_complete, outputs_written)
DESK = OPTIMISATION + (constraints_active, compliance_drop, mirror_symmetry)
GRADIENT = (exit_code, fd_agreement)


def run_checks(check_fns, result, written=()):
    """Apply each check; returns {name: (passed, detail)}."""
    out = {}
    for fn in check_fns:
        try:
            passed, detail = fn(result, written)
        except Exception as exc:  # a check that cannot be applied has failed
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        out[fn.__name__] = (bool(passed), detail)
    return out
