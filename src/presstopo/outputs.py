"""Result files: convergence CSV, design CSV, legacy VTK polydata, SVG."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import PresstopoError
from .fields import material_phase_densities

# fill colors from the stiffest material downwards; void cells stay white
_MATERIAL_COLORS = ["#000000", "#ff8c00", "#ffd700"]
_VOID_COLOR = "#ffffff"


def write_outputs(result, output_dir, write_vtk=None, write_svg=None):
    """Write all result files for a finished run; returns the paths written."""
    cfg = result.config
    write_vtk = cfg.write_vtk if write_vtk is None else write_vtk
    write_svg = cfg.write_svg if write_svg is None else write_svg
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        path = out / "convergence.csv"
        result.log.write_csv(path)
        written.append(path)
        path = out / "design.csv"
        write_design_csv(path, result.design)
        written.append(path)
        if write_vtk:
            path = out / "final.vtk"
            write_vtk_polydata(path, result.mesh, result.design,
                               result.pressure.p, result.elastic.u)
            written.append(path)
        if write_svg:
            path = out / "final.svg"
            write_material_svg(path, result.mesh, result.design,
                               pressure=result.pressure.p
                               if cfg.pressure_isolines else None)
            written.append(path)
        return written
    except OSError as exc:
        raise PresstopoError(f"cannot write outputs to {out}: {exc}") from exc


def write_design_csv(path, design):
    """Raw design variables per element: id, rho1, rho2[, rho3]."""
    m = design.n_variables
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["element", *[f"rho{j + 1}" for j in range(m)]])
        for e in range(design.n_elements):
            writer.writerow(
                [e, *[f"{v:.17g}" for v in design.raw[e]]]
            )


def write_vtk_polydata(path, mesh, design, pressure=None, displacement=None):
    """Legacy-VTK text dump: polygon cells, cell data, and point data.

    Cell data holds the filtered topology density and the physical density of
    each material phase; point data holds pressure and displacement when
    available.
    """
    m = design.n_variables
    phases = material_phase_densities(design.filtered, m)
    lines = [
        "# vtk DataFile Version 3.0",
        "presstopo result",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines.extend(f"{x:.17g} {y:.17g} 0" for x, y in mesh.nodes)
    nel = mesh.n_elements
    lines.append(f"POLYGONS {nel} {nel * 7}")
    lines.extend("6 " + " ".join(map(str, conn)) for conn in mesh.elements)

    lines.append(f"CELL_DATA {nel}")
    cell_fields = [("topology", design.filtered[:, 0])]
    cell_fields += [(f"material_{j + 1}_density", phases[:, j]) for j in range(m)]
    for name, values in cell_fields:
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.17g}" for v in values)

    if pressure is not None or displacement is not None:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
    if pressure is not None:
        lines.append("SCALARS pressure double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.17g}" for v in pressure)
    if displacement is not None:
        lines.append("VECTORS displacement double")
        lines.extend(
            f"{displacement[2 * i]:.17g} {displacement[2 * i + 1]:.17g} 0"
            for i in range(mesh.n_nodes)
        )
    Path(path).write_text("\n".join(lines) + "\n")


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


def write_material_svg(path, mesh, design, pressure=None, width_px=900,
                       n_isolines=9):
    """Render the hexagons colored by their dominant phase.

    The stiffest material is black, softer ones orange then gold, void white;
    an optional pressure-isoline overlay is drawn in blue.
    """
    m = design.n_variables
    phases = material_phase_densities(design.filtered, m)
    void = 1.0 - design.filtered[:, 0]
    shares = np.column_stack([void, phases])
    dominant = shares.argmax(axis=1)

    colors = [_VOID_COLOR] + list(reversed(_MATERIAL_COLORS[:m]))
    scale = width_px / mesh.Lx
    height_px = mesh.Ly * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.2f} '
        f'{height_px:.2f}">',
        f'<rect width="100%" height="100%" fill="{_VOID_COLOR}"/>',
    ]
    coords = mesh.nodes * scale
    coords = np.column_stack([coords[:, 0], height_px - coords[:, 1]])
    for e in range(mesh.n_elements):
        color = colors[dominant[e]]
        if color == _VOID_COLOR:
            continue
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords[mesh.elements[e]])
        parts.append(f'<polygon points="{pts}" fill="{color}"/>')

    if pressure is not None and np.ptp(pressure) > 0:
        levels = np.linspace(pressure.min(), pressure.max(), n_isolines + 2)[1:-1]
        segments = _pressure_isolines(mesh, pressure, levels)
        for (x0, y0), (x1, y1) in segments:
            parts.append(
                f'<line x1="{x0 * scale:.2f}" y1="{height_px - y0 * scale:.2f}" '
                f'x2="{x1 * scale:.2f}" y2="{height_px - y1 * scale:.2f}" '
                f'stroke="#1f77b4" stroke-width="0.6"/>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _pressure_isolines(mesh, pressure, levels):
    """Level-set segments from linear interpolation on the centroid fans."""
    segments = []
    conn = mesh.elements
    verts = mesh.nodes[conn]                      # (nel, 6, 2)
    pv = pressure[conn]                           # (nel, 6)
    centers = verts.mean(axis=1)
    pc = pv.mean(axis=1)
    for level in levels:
        for k in range(6):
            k2 = (k + 1) % 6
            tri_xy = np.stack([centers, verts[:, k], verts[:, k2]], axis=1)
            tri_p = np.stack([pc, pv[:, k], pv[:, k2]], axis=1)
            segments.extend(_triangle_crossings(tri_xy, tri_p, level))
    return segments


def _triangle_crossings(xy, p, level):
    """Isoline segments of one triangle batch; xy (n,3,2), p (n,3)."""
    out = []
    above = p > level
    crossing = (above.sum(axis=1) % 3) != 0
    for idx in np.flatnonzero(crossing):
        pts = []
        for a, b in ((0, 1), (1, 2), (2, 0)):
            pa, pb = p[idx, a], p[idx, b]
            if (pa > level) != (pb > level):
                t = (level - pa) / (pb - pa)
                pts.append(xy[idx, a] + t * (xy[idx, b] - xy[idx, a]))
        if len(pts) == 2:
            out.append((pts[0], pts[1]))
    return out
