from dataclasses import replace

import numpy as np
import pytest

from presstopo import FlowParams, MaterialSet, _element_data
from presstopo.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from presstopo.config import (
    ProblemConfig,
    SupportSpec,
    builtin_config_names,
    load_config,
)


TINY_CONFIG = """
[domain]
lx = 0.2
ly = 0.1
nex = 8
ney = 5

[materials]
young_moduli = 40e6 100e6

[volume]
fractions = 0.1 0.1

[supports]
fixed = bottom:0.0:0.2 bottom:0.8:1.0

[optimizer]
max_iterations = 2

[output]
log_every = 1
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestValidate:
    def test_valid_config(self, tiny_config, capsys):
        assert main(["validate", "--config", str(tiny_config)]) == EXIT_OK
        assert "config OK" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_option_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace("nex = 8", "nex = eight"))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_semantic_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace("fractions = 0.1 0.1",
                                            "fractions = 0.7 0.7"))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_required_option(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace("nex = 8\n", ""))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "nex" in capsys.readouterr().err

    def test_unknown_option_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace("max_iterations = 2",
                                            "max_iteration = 5"))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "[optimizer] max_iteration" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("[optimizer]", "[pressure]\ninlet_value = nan\n\n[optimizer]",
         "[pressure] inlet_value"),
        ("[optimizer]", "[pressure]\ninlet_value = inf\n\n[optimizer]",
         "[pressure] inlet_value"),
        ("lx = 0.2", "lx = inf", "[domain] lx"),
        ("young_moduli = 40e6 100e6", "young_moduli = 40e6 100e6\n"
         "thickness = nan", "[materials] thickness"),
        ("fractions = 0.1 0.1", "fractions = 0.1 nan", "[volume] fractions"),
    ], ids=["inlet_nan", "inlet_inf", "lx_inf", "thickness_nan",
            "fractions_nan"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, old, new,
                                        named):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace(old, new))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("section, option, value", [
        ("materials", "simp_penalty", "-3"),
        ("flow", "step_eta", "1.5"),
        ("flow", "drain_beta", "-2"),
        ("flow", "drainage_remainder", "2"),
        ("flow", "drainage_depth", "0"),
    ])
    def test_solver_rejected_value_is_config_error(self, tmp_path, capsys,
                                                   section, option, value):
        # the parser takes the value; the run's materials, flow parameters or
        # filter reject it
        header = f"[{section}]"
        if header in TINY_CONFIG:
            text = TINY_CONFIG.replace(header, f"{header}\n{option} = {value}")
        else:
            text = TINY_CONFIG + f"\n{header}\n{option} = {value}\n"
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "solver error" not in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("[supports]", "[supports]\nroller_x = left:0.0:1.0",
         "[supports] roller_x"),
        ("[supports]", "[supports]\nroller_y = bottom:0.4:0.6",
         "[supports] roller_y"),
        ("[optimizer]", "[flow]\nvoid_coefficient = 1.0\n\n[optimizer]",
         "[flow] void_coefficient"),
        ("[optimizer]", "[filter]\nradius_abs = 0.01\n\n[optimizer]",
         "[filter] radius_abs"),
        ("[optimizer]", "[flow]\ndrainage_solid = 5\n\n[optimizer]",
         "[flow] drainage_solid"),
    ], ids=["roller_x", "roller_y", "void_coefficient", "radius_abs",
            "drainage_solid"])
    def test_removed_option_rejected(self, tmp_path, capsys, old, new, named):
        # a roller is ``fixed = edge:lo:hi:x|y``; the void flow coefficient
        # cannot change a run; the radius is set in element widths
        # (``radius_elements``) and the solid drainage by the penetration
        # rule (``drainage_remainder``, ``drainage_depth``)
        path = tmp_path / "old.cfg"
        path.write_text(TINY_CONFIG.replace(old, new))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("inlet, outlet, named", [
        ("top", "top", "'top'"),
        ("top left", "bottom, left", "'left'"),
    ])
    def test_edge_both_inlet_and_outlet(self, tmp_path, capsys, inlet,
                                        outlet, named):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace(
            "[optimizer]",
            f"[pressure]\ninlet = {inlet}\noutlet = {outlet}\n\n[optimizer]"))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and "both inlet and outlet" in err

    def test_unset_options_take_dataclass_defaults(self, tiny_config):
        assert load_config(tiny_config) == ProblemConfig(
            lx=0.2, ly=0.1, nex=8, ney=5, e_moduli=(40e6, 100e6),
            volume_fractions=(0.1, 0.1),
            supports=(SupportSpec("bottom", 0.0, 0.2),
                      SupportSpec("bottom", 0.8, 1.0)),
            max_iterations=2, log_every=1, name="tiny")

    def test_required_fields_take_material_and_flow_defaults(self):
        cfg = ProblemConfig(lx=0.2, ly=0.1, nex=8, ney=5,
                            e_moduli=(40e6, 100e6))
        assert cfg.materials() == MaterialSet((40e6, 100e6))
        assert replace(cfg.flow_params(0.01), d_solid=0.0) == FlowParams()

    @pytest.mark.parametrize("option, value", [
        ("write_vtk", "ture"), ("write_svg", "2"),
        ("pressure_isolines", "enabled"),
    ])
    def test_misspelt_boolean_rejected(self, tmp_path, capsys, option,
                                       value):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace(
            "[output]", f"[output]\n{option} = {value}"))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert f"[output] {option} = {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, expected", [
        ("no", False), ("off", False), ("0", False), ("False", False),
        ("YES", True), ("on", True), ("1", True), ("True", True),
    ])
    def test_boolean_values(self, tmp_path, value, expected):
        path = tmp_path / "flags.cfg"
        path.write_text(TINY_CONFIG.replace(
            "[output]", f"[output]\nwrite_vtk = {value}\n"
                        f"write_svg = {value}\npressure_isolines = {value}"))
        cfg = load_config(path)
        assert (cfg.write_vtk, cfg.write_svg, cfg.pressure_isolines) == \
            (expected,) * 3

    def test_builtin_names_resolve(self):
        assert set(builtin_config_names()) == {
            "arch-2mat", "arch-3mat", "piston-2mat", "piston-3mat"}
        for name in builtin_config_names():
            cfg = load_config(name)
            assert cfg.max_iterations == 100

    def test_builtin_paper_parameters(self):
        arch = load_config("arch-2mat")
        assert (arch.nex, arch.ney) == (200, 100)
        assert arch.e_moduli == (40e6, 100e6)
        assert arch.volume_fractions == (0.1, 0.1)
        assert arch.pressure_bc == {"top": 1e5, "bottom": 0.0}
        assert arch.filter_radius == pytest.approx(3.0 * 0.2 / 200)
        piston = load_config("piston-3mat")
        assert (piston.nex, piston.ney) == (180, 120)
        assert piston.e_moduli == (10e6, 40e6, 100e6)
        assert piston.volume_fractions == (0.1, 0.1, 0.05)
        assert piston.filter_radius == pytest.approx(
            3.6 * np.sqrt(3) * 0.12 / 180)
        # clamped outer rim, rollers (u_x = 0) on the symmetry cut
        assert piston.supports == (SupportSpec("right", 0.0, 1.0, "both"),
                                   SupportSpec("left", 0.0, 1.0, "x"))


class TestRun:
    def test_run_writes_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", "--config", str(tiny_config),
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        for name in ("convergence.csv", "design.csv", "final.vtk",
                     "final.svg"):
            assert (out / name).exists()
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 iterations

    @pytest.mark.parametrize("flag", ["--write-vtk", "--write-svg"])
    def test_removed_flag_rejected(self, tiny_config, tmp_path, capsys,
                                   flag):
        # the outputs are set in the config's [output] section
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(tiny_config),
                  "--output-dir", str(tmp_path / "out"), flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # validates fine but leaves fewer than three constrained DOFs
        path = tmp_path / "underconstrained.cfg"
        path.write_text(TINY_CONFIG.replace(
            "fixed = bottom:0.0:0.2 bottom:0.8:1.0",
            "fixed = bottom:0.0:0.05"))
        code = main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["0,0.5,abc\n",
                                      "0,0.5,0.5\n1,0.5\n"])
    def test_malformed_initial_design_is_config_error(self, tmp_path, capsys,
                                                      rows):
        # a non-numeric cell, and a ragged row
        design = tmp_path / "design.csv"
        design.write_text("element,x1,x2\n" + rows)
        path = tmp_path / "restart.cfg"
        path.write_text(TINY_CONFIG.replace(
            "[output]", f"[output]\ninitial_design = {design}"))
        code = main(["run", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(design) in err

    def test_max_iters_override(self, tiny_config, tmp_path):
        out = tmp_path / "results"
        code = main(["run", "--config", str(tiny_config),
                     "--output-dir", str(out), "--max-iters", "1"])
        assert code == EXIT_OK
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 2


class TestGradientCheck:
    def test_gradient_check_passes(self, tiny_config, capsys):
        code = main(["gradient-check", "--config", str(tiny_config),
                     "--elements", "5x4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_check_design_factors_serve_every_analysis(self, tiny_config,
                                                       capsys, monkeypatch):
        # 1 + 2 * 20 * 2 analyses, and only the check design's factors A
        # and K, once each: every other analysis refines from them
        sizes = []
        init = _element_data.Cholesky.__init__

        def counted(self, tree, *args):
            sizes.append(tree.n)
            init(self, tree, *args)

        monkeypatch.setattr(_element_data.Cholesky, "__init__", counted)
        code = main(["gradient-check", "--config", str(tiny_config),
                     "--elements", "5x4"])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert len(sizes) == 2 and sizes[1] == 2 * sizes[0]

    def test_zero_gradient_fails(self, tmp_path, capsys):
        # no pressure difference: zero load, so every component is zero and
        # none is above the noise floor
        path = tmp_path / "unloaded.cfg"
        path.write_text(TINY_CONFIG.replace(
            "[optimizer]", "[pressure]\ninlet_value = 0\n\n[optimizer]"))
        code = main(["gradient-check", "--config", str(path),
                     "--elements", "4x3"])
        captured = capsys.readouterr()
        assert code == EXIT_SOLVER
        assert "components checked  0 / 24" in captured.out
        assert "FAIL: no gradient component is above the noise floor" \
            in captured.err

    def test_bad_elements_argument(self, tiny_config):
        code = main(["gradient-check", "--config", str(tiny_config),
                     "--elements", "bogus"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("step", ["0", "nan", "0.5", "-1e-6"])
    def test_bad_step_is_config_error(self, tiny_config, capsys, step):
        code = main(["gradient-check", "--config", str(tiny_config),
                     "--elements", "5x4", f"--step={step}"])
        assert code == EXIT_CONFIG
        assert "--step" in capsys.readouterr().err
