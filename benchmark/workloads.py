"""The benchmark workloads: one set-up, and one timed execution.

No workload draws random inputs.  The only random numbers are those of the
fixed seed inside ``presstopo gradient-check``.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

from presstopo import cli, driver, outputs
from presstopo._element_data import mesh_integrals
from presstopo.config import load_config

import checks


@dataclass
class Timing:
    run_s: float        # entry point to return, outputs included
    steps: list         # iterations after the first, or seconds per analysis
    windows: list       # (start, end) of each step, for the traced run


class Workload:
    """A builtin config on a given mesh; ``execute`` runs it once, timed."""

    def __init__(self, name, builtin, mesh, check_fns, setup_reps):
        self.name, self.builtin, self.mesh = name, builtin, mesh
        self.check_fns, self.setup_reps = check_fns, setup_reps

    def config(self):
        cfg = load_config(self.builtin)
        if self.mesh:
            cfg.nex, cfg.ney = self.mesh
        return cfg.validate()

    def setup(self):
        """Config load, build_problem and the element tables: once per run."""
        mesh = driver.build_problem(self.config())[0]
        mesh_integrals(mesh)


class Optimisation(Workload):
    """``run_optimization`` from the uniform start, then ``write_outputs``."""

    iterations = True

    def __init__(self, name, builtin, mesh, max_iterations, check_fns, setup_reps):
        super().__init__(name, builtin, mesh, check_fns, setup_reps)
        self.max_iterations = max_iterations

    def config(self):
        cfg = super().config()
        cfg.max_iterations = self.max_iterations
        return cfg

    def execute(self, out_dir):
        """Returns the timing, the ``RunResult`` and the paths written."""
        cfg = self.config()
        stamps = []
        start = time.perf_counter()
        result = driver.run_optimization(
            cfg, progress=lambda it, rec: stamps.append(time.perf_counter()))
        written = outputs.write_outputs(result, out_dir)
        run_s = time.perf_counter() - start
        # iteration 1 also holds build_problem, so the steps start at 2
        windows = list(zip(stamps[:-1], stamps[1:]))
        return Timing(run_s, [hi - lo for lo, hi in windows], windows), result, written


class GradientCheck(Workload):
    """``presstopo gradient-check`` called through ``presstopo.cli.main``."""

    iterations = False

    def __init__(self, name, builtin, mesh, setup_reps):
        super().__init__(name, builtin, mesh, checks.GRADIENT, setup_reps)
        self.argv = ["gradient-check", "--config", builtin,
                     "--elements", "x".join(map(str, mesh))]

    def execute(self, out_dir):
        """Returns the timing, (exit code, standard output) and no paths."""
        nex, ney = self.mesh
        # one analysis at the design, two per component for the differences
        analyses = 1 + 2 * nex * ney * self.config().n_materials
        text = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(text):
            code = cli.main(self.argv)
        end = time.perf_counter()
        run_s = end - start
        return (Timing(run_s, [run_s / analyses], [(start, end)]),
                (code, text.getvalue()), ())


WORKLOADS = {
    w.name: w for w in (
        Optimisation("piston3-paper", "piston-3mat", None, 6,
                     checks.OPTIMISATION, setup_reps=7),
        Optimisation("arch2-desk", "arch-2mat", (61, 30), 100,
                     checks.DESK, setup_reps=20),
        GradientCheck("piston3-gradcheck", "piston-3mat", (16, 10),
                      setup_reps=20),
    )
}
