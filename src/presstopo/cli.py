"""Command-line interface: run, validate, gradient-check.

Exit codes: 0 success, 2 configuration error, 3 solver/optimizer failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import adjoint, driver, outputs
from .config import builtin_config_names, load_config
from .errors import ConfigError, PresstopoError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="presstopo",
        description="Topology optimization of pressure-loaded multi-material "
                    "structures on honeycomb meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an optimization")
    run.add_argument("--config", required=True,
                     help="config file path or builtin name "
                          f"({', '.join(builtin_config_names())})")
    run.add_argument("--output-dir", default=None)
    run.add_argument("--max-iters", type=int, default=None)
    run.add_argument("--write-vtk", action="store_true")
    run.add_argument("--write-svg", action="store_true")
    run.add_argument("--log-every", type=int, default=None)

    val = sub.add_parser("validate", help="check a config file")
    val.add_argument("--config", required=True)

    grad = sub.add_parser("gradient-check",
                          help="compare adjoint and finite-difference "
                               "gradients on a downscaled mesh")
    grad.add_argument("--config", required=True)
    grad.add_argument("--elements", default="12x8",
                      help="mesh size WxH for the check (default 12x8)")
    grad.add_argument("--step", type=float, default=1e-6)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gradient-check":
            return _cmd_gradient_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PresstopoError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_validate(args):
    cfg = load_config(args.config)
    print(f"config OK: {cfg.name}")
    print(f"  domain   {cfg.lx} x {cfg.ly} m, {cfg.nex} x {cfg.ney} elements")
    print(f"  materials E = {cfg.e_moduli} Pa, fractions {cfg.volume_fractions}")
    print(f"  filter radius {cfg.filter_radius:.6g} m, "
          f"{cfg.max_iterations} iterations")
    return EXIT_OK


def _cmd_run(args):
    cfg = load_config(args.config)
    if args.max_iters is not None:
        cfg.max_iterations = args.max_iters
        cfg.validate()
    if args.log_every is not None:
        cfg.log_every = args.log_every
    if args.write_vtk:
        cfg.write_vtk = True
    if args.write_svg:
        cfg.write_svg = True
    out_dir = args.output_dir or cfg.output_directory
    every = max(cfg.log_every, 1)

    def progress(it, record):
        if it % every == 0 or it == 1:
            gs = " ".join(f"g{j + 1}={v:.4f}"
                          for j, v in enumerate(record.volume_measures))
            print(f"it {it:4d}  c={record.compliance:.6e}  {gs}  "
                  f"dx={record.max_design_change:.4f}")

    result = driver.run_optimization(cfg, progress=progress)
    written = outputs.write_outputs(result, out_dir)
    print(f"done in {result.log.wall_time:.1f} s; wrote:")
    for path in written:
        print(f"  {path}")
    return EXIT_OK


def _cmd_gradient_check(args):
    # the check design lies in [0.15, 0.85], so a step of 0.15 or more
    # leaves [0, 1]
    h = args.step
    if not 0.0 < h < 0.15:
        raise ConfigError(f"--step must be finite and in (0, 0.15), got {h}")
    cfg = load_config(args.config)
    try:
        nex, ney = (int(tok) for tok in args.elements.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"--elements must be WxH, got {args.elements!r}") from exc
    cfg.nex, cfg.ney = nex, ney
    # support segments are sized for the production mesh; on the coarse
    # check mesh widen each one to span at least two element pitches
    widened = []
    for s in cfg.supports:
        pad = 2.0 / (ney if s.edge in ("left", "right") else nex)
        lo = max(0.0, min(s.lo, s.hi - pad))
        hi = min(1.0, max(s.hi, s.lo + pad))
        widened.append(type(s)(s.edge, lo, hi, s.directions))
    cfg.supports = tuple(widened)
    cfg.validate()

    mesh, filt, materials, flow, fixed_dofs = driver.build_problem(cfg)
    rng = np.random.default_rng(2024)
    raw = rng.uniform(0.15, 0.85, size=(mesh.n_elements, cfg.n_materials))

    def compliance_of(raw_vars):
        design = driver.make_design(raw_vars, filt, mesh, materials)
        return driver.analyze(design, mesh, materials, flow, fixed_dofs,
                              cfg.pressure_bc).compliance

    design = driver.make_design(raw, filt, mesh, materials)
    estate = driver.analyze(design, mesh, materials, flow, fixed_dofs,
                            cfg.pressure_bc)
    grad = adjoint.compliance_sensitivity(mesh, materials, flow, estate, filt)
    fd = np.zeros_like(grad)
    for j in range(grad.shape[1]):
        for e in range(mesh.n_elements):
            bump = raw.copy()
            bump[e, j] = raw[e, j] + h
            c_plus = compliance_of(bump)
            bump[e, j] = raw[e, j] - h
            c_minus = compliance_of(bump)
            fd[e, j] = (c_plus - c_minus) / (2 * h)

    # central differences on sparse solves resolve roughly 1e-12 |c| / h in
    # absolute terms; smaller components would only compare roundoff
    noise = 1e-12 * abs(estate.compliance) / h
    floor = max(1e-12 * np.abs(grad).max(), noise / 1e-4)
    mask = np.abs(grad) > floor
    rel = np.abs(grad[mask] - fd[mask]) / np.abs(grad[mask])
    print(f"gradient check on {nex}x{ney} ({grad.size} components, "
          f"h={h:.1e}):")
    if rel.size:
        print(f"  max relative error  {rel.max():.3e}")
        print(f"  mean relative error {rel.mean():.3e}")
    print(f"  components checked  {rel.size} / {grad.size}")
    if not rel.size:
        print("FAIL: no gradient component is above the noise floor",
              file=sys.stderr)
        return EXIT_SOLVER
    if rel.max() > 1e-4:
        print("FAIL: adjoint gradient disagrees with finite differences",
              file=sys.stderr)
        return EXIT_SOLVER
    print("PASS")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
