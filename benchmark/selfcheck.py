"""Show that every output check can fail.

Runs ``arch2-desk`` and ``piston3-gradcheck`` once, checks the clean
results (all must pass), then feeds the checks one corrupted copy of a
result per check.  Each corrupted input must be reported as a failed
operation by the check it targets.
"""

from __future__ import annotations

import copy
import shutil
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from checks import run_checks
from workloads import WORKLOADS


def _elastic(r, **changes):
    return replace(r, elastic=replace(r.elastic, **changes))


def _pressure(r, **changes):
    return replace(r, pressure=replace(r.pressure, **changes))


def _design(r, **changes):
    # DesignField clips on construction, so corrupt a shallow copy in place
    design = copy.copy(r.design)
    for key, value in changes.items():
        setattr(design, key, value)
    return replace(r, design=design)


def _records(r, edit):
    records = [replace(rec) for rec in r.log.records]
    edit(records)
    return replace(r, log=replace(r.log, records=records))


def _set(array, index, value):
    out = array.copy()
    out[index] = value
    return out


def _set_compliance(index, value_of):
    def edit(records):
        records[index] = replace(records[index], compliance=value_of(records))
    return edit


def _nudge(value, step):
    return value + step if value < 0.5 else value - step


def _optimisation_corruptions(r, written):
    """(description, targeted check, corrupted result, written paths)."""
    top = r.mesh.boundary_node_sets["top"][0]
    dirichlet = np.concatenate(
        [r.mesh.boundary_node_sets[edge] for edge in r.config.pressure_bc])
    inner = int(np.setdiff1d(np.arange(r.pressure.p.size), dirichlet)[0])
    raw = r.design.raw
    return [
        ("u scaled by 1+1e-6", "elastic_residual",
         _elastic(r, u=r.elastic.u * (1 + 1e-6)), written),
        ("p shifted by 1 Pa on one Dirichlet node", "pressure_residual",
         _pressure(r, p=_set(r.pressure.p, top, r.pressure.p[top] + 1.0)), written),
        ("F scaled by 1+1e-6", "load_transform",
         _elastic(r, F=r.elastic.F * (1 + 1e-6)), written),
        ("compliance scaled by 1+1e-6", "compliance_identity",
         _elastic(r, compliance=r.elastic.compliance * (1 + 1e-6)), written),
        ("K tied to the ground by springs of 1e-6 of its diagonal", "equilibrium",
         _elastic(r, K=r.elastic.K + sp.diags(1e-6 * r.elastic.K.diagonal())),
         written),
        ("p set 1 Pa above the inlet pressure on one free node", "pressure_bounds",
         _pressure(r, p=_set(r.pressure.p, inner, r.pressure.p.max() + 1.0)),
         written),
        ("one filtered density set to 1.5", "densities",
         _design(r, filtered=_set(r.design.filtered, (0, 1), 1.5)), written),
        ("raw design moved by 1e-12 after design.csv was written",
         "design_csv_roundtrip",
         _design(r, raw=_set(raw, (0, 0), _nudge(raw[0, 0], 1e-12))), written),
        ("last compliance set to twice the first", "compliance_decreases",
         _records(r, _set_compliance(-1, lambda recs: 2 * recs[0].compliance)),
         written),
        ("last iteration record dropped", "iterations_complete",
         _records(r, lambda recs: recs.pop()), written),
        ("final.svg missing", "outputs_written",
         r, [p for p in written if p.name != "final.svg"]),
        ("iteration-100 volume measures raised by 2e-3", "constraints_active",
         _records(r, lambda recs: recs.__setitem__(99, replace(
             recs[99], volume_measures=tuple(
                 g + 2e-3 for g in recs[99].volume_measures)))), written),
        ("c(5) lowered to c(100)", "compliance_drop",
         _records(r, _set_compliance(4, lambda recs: recs[99].compliance)),
         written),
        ("one raw variable moved by 1e-3, breaking the mirror symmetry",
         "mirror_symmetry",
         _design(r, raw=_set(raw, (0, 0), _nudge(raw[0, 0], 1e-3))), written),
    ]


def _gradient_corruptions(run, written):
    code, text = run
    worse = text.replace("max relative error", "max relative error  2.0e-04 was")
    return [
        ("exit code 3", "exit_code", (3, text), ()),
        ("max relative error reported as 2e-4", "fd_agreement", (code, worse), ()),
    ]


def _report(label, outcome):
    failed = [name for name, (passed, _) in outcome.items() if not passed]
    print(f"{label}: {len(outcome)} operations, {len(failed)} failed "
          f"{failed if failed else ''}")
    return failed


def self_check(out_root):
    """Returns 0 when the clean results pass and every corruption is caught."""
    ok = True
    try:
        for name, corrupt in (("arch2-desk", _optimisation_corruptions),
                              ("piston3-gradcheck", _gradient_corruptions)):
            workload = WORKLOADS[name]
            _, subject, written = workload.execute(out_root / name)
            fns = workload.check_fns
            ok &= not _report(f"{name} clean", run_checks(fns, subject, written))
            cases = corrupt(subject, written)
            targets = {target for _, target, _, _ in cases}
            missing = {fn.__name__ for fn in fns} - targets
            if missing:
                print(f"{name}: no corruption targets {sorted(missing)}")
                ok = False
            for label, target, bad, bad_written in cases:
                failed = _report(f"{name} {label}", run_checks(fns, bad, bad_written))
                if target not in failed:
                    print(f"  NOT CAUGHT: {target} passed on a corrupted input")
                    ok = False
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1
