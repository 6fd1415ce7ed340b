import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from presstopo import InvalidArgumentError, driver
from presstopo.fields import material_phase_densities
from presstopo.outputs import (
    _VOID_COLOR,
    _material_colors,
    write_convergence_csv,
    write_design_csv,
    write_material_svg,
    write_outputs,
    write_vtk_polydata,
)

from conftest import arch_config, make_uniform_design


def read_vtk_polydata(path):
    """Parse a file written by ``write_vtk_polydata`` (round-trip checks)."""
    lines = Path(path).read_text().splitlines()
    i = 0
    points = cells = None
    cell_data = {}
    point_data = {}
    n_points = n_cells = 0
    section = None
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        key = parts[0]
        if key == "POINTS":
            n_points = int(parts[1])
            points = np.array(
                [lines[i + 1 + k].split() for k in range(n_points)], float
            )[:, :2]
            i += n_points + 1
        elif key == "POLYGONS":
            n_cells = int(parts[1])
            cells = np.array(
                [lines[i + 1 + k].split()[1:] for k in range(n_cells)], int
            )
            i += n_cells + 1
        elif key == "CELL_DATA":
            section = "cell"
            i += 1
        elif key == "POINT_DATA":
            section = "point"
            i += 1
        elif key == "SCALARS":
            count = n_cells if section == "cell" else n_points
            values = np.array(lines[i + 2:i + 2 + count], float)
            (cell_data if section == "cell" else point_data)[parts[1]] = values
            i += count + 2
        elif key == "VECTORS":
            count = n_cells if section == "cell" else n_points
            values = np.array(
                [lines[i + 1 + k].split() for k in range(count)], float
            )[:, :2]
            (cell_data if section == "cell" else point_data)[parts[1]] = values
            i += count + 1
        else:
            i += 1
    return points, cells, cell_data, point_data


@pytest.fixture(scope="module")
def small_result():
    cfg = arch_config(nex=6, ney=4, max_iterations=3)
    return driver.run_optimization(cfg)


class TestConvergenceCsv:
    def test_empty_run_header_only(self, tmp_path):
        cfg = arch_config(nex=5, ney=4, max_iterations=0)
        result = driver.run_optimization(cfg)
        path = tmp_path / "convergence.csv"
        write_convergence_csv(path, result.log, result.design.n_variables)
        assert path.read_bytes() == b"iter,compliance,g1,g2,max_dx\r\n"

    def test_rows_match_records(self, small_result, tmp_path):
        path = tmp_path / "convergence.csv"
        write_convergence_csv(path, small_result.log,
                              small_result.design.n_variables)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(small_result.log.records)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(
            small_result.log.records[0].compliance, rel=1e-11)

    @pytest.mark.parametrize("fourth, m, first_bad", [
        ((0.1, 0.2, 0.3), 2, "iteration 1 has 3 volume measures, not 2"),
        ((0.1, 0.2), 3, "iteration 4 has 2 volume measures, not 3"),
    ])
    def test_mismatched_record_rejected(self, tmp_path, fourth, m, first_bad):
        log = driver.RunLog()
        for it in range(1, 6):
            log.append(driver.IterationRecord(
                iteration=it, compliance=1.0, max_design_change=0.01,
                volume_measures=fourth if it == 4 else (0.1, 0.2, 0.3)))
        path = tmp_path / "convergence.csv"
        with pytest.raises(InvalidArgumentError, match=f"^{first_bad}$"):
            write_convergence_csv(path, log, m)
        assert not path.exists()


class TestVtk:
    def test_round_trip(self, small_result, tmp_path):
        path = tmp_path / "final.vtk"
        write_vtk_polydata(path, small_result.mesh, small_result.design,
                           small_result.pressure.p, small_result.elastic.u)
        points, cells, cell_data, point_data = read_vtk_polydata(path)
        mesh = small_result.mesh
        assert np.abs(points - mesh.nodes).max() < 1e-12
        assert np.array_equal(cells, mesh.elements)
        assert np.abs(cell_data["topology"]
                      - small_result.design.filtered[:, 0]).max() < 1e-12
        phases = small_result.design.filtered
        mat1 = phases[:, 0] * (1 - phases[:, 1])
        mat2 = phases[:, 0] * phases[:, 1]
        assert np.abs(cell_data["material_1_density"] - mat1).max() < 1e-12
        assert np.abs(cell_data["material_2_density"] - mat2).max() < 1e-12
        assert np.abs(point_data["pressure"]
                      - small_result.pressure.p).max() < 1e-12 * np.abs(
            small_result.pressure.p).max()
        u = small_result.elastic.u
        disp = point_data["displacement"]
        assert np.abs(disp[:, 0] - u[0::2]).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(disp[:, 1] - u[1::2]).max() <= 1e-12 * np.abs(u).max()


class TestSvg:
    def test_uniform_design_single_color(self, tmp_path):
        from presstopo import generate_mesh

        mesh = generate_mesh(4, 3, 0.4, 0.3)
        design = make_uniform_design(mesh, [1.0, 1.0])
        path = tmp_path / "u.svg"
        write_material_svg(path, mesh, design)
        text = path.read_text()
        assert text.count("<polygon") == mesh.n_elements
        fills = {seg.split('"')[0] for seg in text.split('fill="')[2:]}
        assert fills == {"#000000"}

    def test_void_design_draws_background_only(self, tmp_path):
        from presstopo import generate_mesh

        mesh = generate_mesh(4, 3, 0.4, 0.3)
        design = make_uniform_design(mesh, [0.0, 0.0])
        path = tmp_path / "v.svg"
        write_material_svg(path, mesh, design)
        assert "<polygon" not in path.read_text()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_every_material_count_drawn(self, m, tmp_path):
        from presstopo import generate_mesh

        # element e < m + 1 is void (e = 0) or pure material e; the rest are
        # the stiffest material
        mesh = generate_mesh(4, 3, 0.4, 0.3)
        design = make_uniform_design(mesh, [1.0] * m)
        for e in range(m + 1):
            design.filtered[e] = np.arange(m) < e
        path = tmp_path / "m.svg"
        write_material_svg(path, mesh, design)
        fills = [seg.split('"')[0]
                 for seg in path.read_text().split('fill="')[2:]]
        assert len(fills) == mesh.n_elements - 1
        assert fills[:m] == _material_colors(m)[::-1]
        assert len(set(fills)) == m
        assert set(fills[m:]) == {"#000000"}
        assert _material_colors(3) == ["#000000", "#ff8c00", "#ffd700"]

    def test_isolines_drawn_for_varying_pressure(self, small_result, tmp_path):
        path = tmp_path / "iso.svg"
        write_material_svg(path, small_result.mesh, small_result.design,
                           pressure=small_result.pressure.p)
        assert "<line" in path.read_text()


class TestWriteOutputs:
    def test_all_files_written(self, small_result, tmp_path):
        written = write_outputs(small_result, tmp_path)
        names = {p.name for p in written}
        assert names == {"convergence.csv", "design.csv", "final.vtk",
                         "final.svg"}
        for p in written:
            assert p.exists() and p.stat().st_size > 0

    def test_flags_disable_files(self, small_result, tmp_path):
        cfg = replace(small_result.config, write_vtk=False, write_svg=False)
        written = write_outputs(replace(small_result, config=cfg), tmp_path)
        names = {p.name for p in written}
        assert names == {"convergence.csv", "design.csv"}

    def test_unwritable_path_raises(self, small_result, tmp_path):
        from presstopo import PresstopoError

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(PresstopoError):
            write_outputs(small_result, blocker / "sub")

    def test_design_csv_columns(self, small_result, tmp_path):
        path = tmp_path / "design.csv"
        write_design_csv(path, small_result.design)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "element,rho1,rho2"
        assert len(lines) == 1 + small_result.mesh.n_elements


def reference_design_csv(path, design):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["element", *[f"rho{j + 1}"
                                      for j in range(design.n_variables)]])
        for e in range(design.n_elements):
            writer.writerow([e, *[f"{v:.17g}" for v in design.raw[e]]])


def reference_convergence_csv(path, log, m):
    """``convergence.csv`` by ``csv.writer``, one f-string per value."""
    gs = [f"g{j + 1}" for j in range(m)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iter", "compliance", *gs, "max_dx"])
        for r in log.records:
            writer.writerow([r.iteration, *[
                f"{v:.12g}" for v in (r.compliance, *r.volume_measures,
                                      r.max_design_change)]])


def reference_vtk_blocks(mesh, design, pressure, displacement):
    """The number lines of ``write_vtk_polydata``, one f-string per value."""
    phases = material_phase_densities(design.filtered, design.n_variables)
    lines = [f"{x:.17g} {y:.17g} 0" for x, y in mesh.nodes]
    lines += ["6 " + " ".join(map(str, conn)) for conn in mesh.elements]
    for values in (design.filtered[:, 0], *phases.T, pressure):
        lines += [f"{v:.17g}" for v in values]
    lines += [f"{displacement[2 * i]:.17g} {displacement[2 * i + 1]:.17g} 0"
              for i in range(mesh.n_nodes)]
    return lines


def reference_svg_shapes(mesh, design, pressure, width_px=900, n_isolines=9):
    """The polygon and isoline lines of ``write_material_svg``."""
    m = design.n_variables
    phases = material_phase_densities(design.filtered, m)
    shares = np.column_stack([1.0 - design.filtered[:, 0], phases])
    dominant = shares.argmax(axis=1)
    colors = [_VOID_COLOR] + _material_colors(m)[::-1]
    scale = width_px / mesh.Lx
    height_px = mesh.Ly * scale
    coords = mesh.nodes * scale
    coords = np.column_stack([coords[:, 0], height_px - coords[:, 1]])
    lines = []
    for e in range(mesh.n_elements):
        color = colors[dominant[e]]
        if color != _VOID_COLOR:
            pts = " ".join(f"{x:.2f},{y:.2f}"
                           for x, y in coords[mesh.elements[e]])
            lines.append(f'<polygon points="{pts}" fill="{color}"/>')
    verts = mesh.nodes[mesh.elements]
    pv = pressure[mesh.elements]
    centers, pc = verts.mean(axis=1), pv.mean(axis=1)
    segments = []
    for level in np.linspace(pressure.min(), pressure.max(),
                             n_isolines + 2)[1:-1]:
        for k in range(6):
            k2 = (k + 1) % 6
            xy = np.stack([centers, verts[:, k], verts[:, k2]], axis=1)
            p = np.stack([pc, pv[:, k], pv[:, k2]], axis=1)
            for idx in np.flatnonzero((p > level).sum(axis=1) % 3 != 0):
                pts = []
                for a, b in ((0, 1), (1, 2), (2, 0)):
                    pa, pb = p[idx, a], p[idx, b]
                    if (pa > level) != (pb > level):
                        t = (level - pa) / (pb - pa)
                        pts.append(xy[idx, a] + t * (xy[idx, b] - xy[idx, a]))
                segments.append(pts)
    for (x0, y0), (x1, y1) in segments:
        lines.append(
            f'<line x1="{x0 * scale:.2f}" y1="{height_px - y0 * scale:.2f}" '
            f'x2="{x1 * scale:.2f}" y2="{height_px - y1 * scale:.2f}" '
            f'stroke="#1f77b4" stroke-width="0.6"/>')
    return lines


class TestBulkFormatting:
    """The bulk writers give the same bytes as one f-string per value."""

    def test_same_text_as_per_value_formatting(self, small_result, tmp_path):
        mesh, design = small_result.mesh, small_result.design
        rng = np.random.default_rng(8)
        design = make_uniform_design(mesh, [0.5, 0.5])
        design.raw = rng.uniform(0.0, 1.0, design.raw.shape) ** 3
        design.raw[0, 0] = -0.0
        design.filtered = rng.uniform(0.0, 1.0, design.filtered.shape)
        p = small_result.pressure.p
        u = rng.normal(size=2 * mesh.n_nodes) * 1e-7

        write_design_csv(tmp_path / "d.csv", design)
        reference_design_csv(tmp_path / "r.csv", design)
        assert (tmp_path / "d.csv").read_bytes() \
            == (tmp_path / "r.csv").read_bytes()
        assert np.array_equal(np.loadtxt(tmp_path / "d.csv", delimiter=",",
                                         skiprows=1)[:, 1:], design.raw)

        log = driver.RunLog()
        for it in range(1, 13):
            values = rng.uniform(0.0, 1.0, 5) * 10.0 ** rng.integers(-9, 9, 5)
            log.append(driver.IterationRecord(
                iteration=it, compliance=float(values[0]),
                volume_measures=tuple(values[1:4]),
                max_design_change=float(values[4])))
        write_convergence_csv(tmp_path / "c.csv", log, 3)
        reference_convergence_csv(tmp_path / "rc.csv", log, 3)
        assert (tmp_path / "c.csv").read_bytes() \
            == (tmp_path / "rc.csv").read_bytes()

        write_vtk_polydata(tmp_path / "v.vtk", mesh, design, p, u)
        want = reference_vtk_blocks(mesh, design, p, u)
        got = [line for line in Path(tmp_path / "v.vtk").read_text()
               .splitlines() if line[:1].isdigit() or line[:1] == "-"]
        assert got == want

        write_material_svg(tmp_path / "s.svg", mesh, design, pressure=p)
        got = [line for line in (tmp_path / "s.svg").read_text().splitlines()
               if line.startswith(("<polygon", "<line"))]
        assert got == reference_svg_shapes(mesh, design, p)
        assert {"#000000", "#ff8c00"} <= {
            line.split('fill="')[1][:7] for line in got if "fill" in line}
