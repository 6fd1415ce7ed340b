"""Optimization driver: couples flow, elasticity, sensitivities, and MMA.

Each iteration filters the design, solves the Darcy pressure field, converts
it to nodal loads, solves the elastic problem, evaluates compliance and the
volume measures, forms adjoint sensitivities, and takes one MMA step.  A
last pass of the same loop analyses the final design, so the returned fields
match it; an error names the iteration, or the final analysis, where it
happened.  Runs are deterministic: the same configuration reproduces the
same log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import adjoint as adjoint_mod
from . import darcy, elasticity, fields, honeymesh
from .errors import ConfigError, PresstopoError
from .mma import MmaState, mma_update


@dataclass
class IterationRecord:
    iteration: int
    compliance: float
    volume_measures: tuple
    max_design_change: float


@dataclass
class RunLog:
    """Per-iteration history of one optimization run."""

    records: list = field(default_factory=list)
    wall_time: float = 0.0

    def append(self, record):
        if not np.isfinite(record.compliance) or record.compliance < 0:
            raise PresstopoError(
                f"iteration {record.iteration}: non-physical compliance "
                f"{record.compliance}"
            )
        self.records.append(record)


@dataclass
class RunResult:
    log: RunLog
    design: fields.DesignField
    pressure: darcy.PressureState
    elastic: elasticity.ElasticState
    mesh: honeymesh.Mesh
    config: object


def build_problem(config):
    """Mesh, filter, materials, flow parameters, and supports from a config."""
    mesh = honeymesh.generate_mesh(config.nex, config.ney, config.lx, config.ly)
    filt = fields.build_filter(mesh, config.filter_radius)
    materials = config.materials()
    flow = config.flow_params(mesh.element_height)
    fixed_dofs = support_dofs(mesh, config.supports)
    return mesh, filt, materials, flow, fixed_dofs


def support_dofs(mesh, supports):
    """Constrained DOF indices from edge-segment support specifications."""
    dofs = []
    for spec in supports:
        nodes = mesh.boundary_node_sets.get(spec.edge)
        if nodes is None:
            raise ConfigError(f"unknown support edge {spec.edge!r}")
        coords = mesh.nodes[nodes]
        along = coords[:, 1] if spec.edge in ("left", "right") else coords[:, 0]
        length = mesh.Ly if spec.edge in ("left", "right") else mesh.Lx
        tol = 1e-9 * length
        sel = nodes[(along >= spec.lo * length - tol)
                    & (along <= spec.hi * length + tol)]
        if spec.directions in ("both", "x"):
            dofs.extend(2 * sel)
        if spec.directions in ("both", "y"):
            dofs.extend(2 * sel + 1)
    if not dofs:
        raise ConfigError("support specification selected no nodes")
    return np.unique(np.asarray(dofs, dtype=np.int64))


def initial_design(config, mesh):
    """Uniform start: column j at the share of its cumulative tail fraction."""
    tails = config.constraint_bounds
    values = [tails[0]]
    for j in range(1, len(tails)):
        values.append(tails[j] / tails[j - 1])
    raw = np.tile(np.asarray(values), (mesh.n_elements, 1))
    if config.initial_design:
        raw = read_design_csv(config.initial_design, mesh.n_elements,
                              len(tails))
    return raw


def read_design_csv(path, n_elements, n_variables):
    """Load raw design variables from a previously written design.csv,
    whose element column lists 0..n_elements-1 in order."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:  # ValueError: a bad cell or row
        raise ConfigError(f"cannot read initial design {path}: {exc}") from exc
    if data.ndim == 1:
        data = data[None, :]
    if data.shape != (n_elements, n_variables + 1):
        raise ConfigError(
            f"initial design {path} has shape {data.shape}, expected "
            f"({n_elements}, {n_variables + 1})"
        )
    if not np.isfinite(data).all():
        raise ConfigError(f"initial design {path} has non-finite values")
    if not np.array_equal(data[:, 0], np.arange(n_elements)):
        raise ConfigError(f"initial design {path} does not list elements "
                          f"0..{n_elements - 1} in order")
    return np.clip(data[:, 1:], 0.0, 1.0)


def make_design(raw, filt, mesh, materials):
    t = materials.thickness
    return fields.DesignField(raw, filt.apply(raw), mesh.element_areas() * t, t)


def analyze(design, mesh, materials, flow, fixed_dofs, pressure_bc,
            near=None):
    """Solve the coupled flow/elasticity problem for one design.

    The returned ``ElasticState`` holds ``design``, its ``PressureState``
    and the factor of K.  ``near``, the ``ElasticState`` of a nearby design
    analysed with the same mesh, materials, flow, supports and pressure
    values, spares the factorizations: K's solve refines from
    ``near.factor``, and A's from ``near.pressure.factor``.  The flow
    depends on the design only through rho1 and the thickness, so where both
    are bitwise those of ``near.design``, ``near.pressure`` and its loads
    are reused outright.  Every solve keeps its residual gate.
    """
    if near is not None and _same_bits(
            (design.filtered[:, 0], design.thickness),
            (near.design.filtered[:, 0], near.design.thickness)):
        pstate, force = near.pressure, near.F
    else:
        a, t = darcy.assemble_flow(mesh, design, flow)
        pstate = darcy.solve_pressure(
            a, t, mesh, pressure_bc,
            near=None if near is None else near.pressure.factor)
        force = darcy.pressure_loads(t, pstate.p)
    stiffness = elasticity.assemble_stiffness(mesh, design, materials)
    u, compliance, factor = elasticity.solve_displacements(
        stiffness, force, mesh, fixed_dofs,
        near=None if near is None else near.factor)
    return elasticity.ElasticState(
        K=stiffness, u=u, F=force, fixed_dofs=fixed_dofs,
        compliance=compliance, design=design, pressure=pstate, factor=factor,
    )


def _same_bits(arrays, others):
    """Whether each array has the bytes of its counterpart."""
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in zip(arrays, others))


def run_optimization(config, progress=None):
    """Run the full optimization loop; returns a ``RunResult``.

    ``progress`` may be a callable taking (iteration, record) for logging.
    """
    start = time.perf_counter()
    mesh, filt, materials, flow, fixed_dofs = build_problem(config)
    bounds = config.constraint_bounds
    m = config.n_materials
    nel = mesh.n_elements

    raw = initial_design(config, mesh)
    state = MmaState.for_variables(nel * m, move_limit=config.move_limit)
    objective_scale = dg = None
    log = RunLog()

    # each pass analyses the current design; the last one, after the final
    # update, only analyses, so that the returned fields match the design
    it, final = 1, config.max_iterations == 0
    while True:
        try:
            design = make_design(raw, filt, mesh, materials)
            estate = analyze(design, mesh, materials, flow, fixed_dofs,
                             config.pressure_bc)
            # hold no factor of K past its solve: nothing here refines from it
            estate.factor.release()
            if final:
                break
            if dg is None:  # the volume gradients are design-independent
                dg_list = adjoint_mod.constraint_sensitivities(design, filt)
                dg = np.stack([grad.ravel(order="F") for grad in dg_list])
            g = fields.volume_measures(design)
            dc = adjoint_mod.compliance_sensitivity(
                mesh, materials, flow, estate, filt
            )
            x = raw.ravel(order="F")
            df0 = dc.ravel(order="F")
            if objective_scale is None:
                objective_scale = 1.0 / max(np.abs(df0).max(), 1e-30)
            x_new = mma_update(
                x, estate.compliance * objective_scale,
                df0 * objective_scale, g - bounds, dg, state,
            )
        except PresstopoError as exc:
            where = (f"final analysis after {len(log.records)} iterations"
                     if final else f"iteration {it}")
            raise type(exc)(f"{where}: {exc}") from exc

        max_dx = float(np.abs(x_new - x).max())
        record = IterationRecord(
            iteration=it,
            compliance=estate.compliance,
            volume_measures=tuple(g),
            max_design_change=max_dx,
        )
        log.append(record)
        if progress is not None:
            progress(it, record)
        raw = x_new.reshape((nel, m), order="F")
        # free this state (K, A and the factor of A) before the next analysis
        del estate
        final = it == config.max_iterations or (
            config.step_tolerance > 0 and max_dx < config.step_tolerance)
        it += 1

    log.wall_time = time.perf_counter() - start
    return RunResult(log=log, design=design, pressure=estate.pressure,
                     elastic=estate, mesh=mesh, config=config)
