"""Result files: convergence CSV, design CSV, legacy VTK polydata, SVG.

Each block of numbers is formatted in one ``%`` operation over a joined
line template, with the same conversions (``%.12g``, ``%.17g``, ``%.2f``)
as one f-string per value.  Both CSV files have ``csv.writer``'s layout:
a header row and CRLF line ends.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, PresstopoError
from .fields import material_phase_densities

_VOID_COLOR = "#ffffff"
_SVG_WIDTH_PX = 900
_N_ISOLINES = 9


def _material_colors(m):
    """Fill colors of ``m`` materials from the stiffest downwards: black,
    then orange shading to gold (``#ff8c00``, ``#ffd700`` for three)."""
    green = np.linspace(0x8c, 0xd7, m - 1).round().astype(int)
    return ["#000000"] + [f"#ff{g:02x}00" for g in green]


def write_outputs(result, output_dir):
    """Write all result files for a finished run; returns the paths written.

    The VTK and SVG files are written as the run's config asks
    (``write_vtk``, ``write_svg``).
    """
    cfg = result.config
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        path = out / "convergence.csv"
        write_convergence_csv(path, result.log, result.design.n_variables)
        written.append(path)
        path = out / "design.csv"
        write_design_csv(path, result.design)
        written.append(path)
        if cfg.write_vtk:
            path = out / "final.vtk"
            write_vtk_polydata(path, result.mesh, result.design,
                               result.pressure.p, result.elastic.u)
            written.append(path)
        if cfg.write_svg:
            path = out / "final.svg"
            write_material_svg(path, result.mesh, result.design,
                               pressure=result.pressure.p
                               if cfg.pressure_isolines else None)
            written.append(path)
        return written
    except OSError as exc:
        raise PresstopoError(f"cannot write outputs to {out}: {exc}") from exc


def _lines(template, rows, sep="\n"):
    """``template % row`` for each row of the 2-D array ``rows``, joined by
    ``sep``."""
    return sep.join([template] * len(rows)) % tuple(rows.ravel().tolist())


def _write_csv(path, names, template, rows):
    """A header of ``names``, then ``template % row`` for each row of
    ``rows`` (its integer column through %d as an exact float), CRLF ends."""
    Path(path).write_text(",".join(names) + "\r\n"
                          + _lines(template + "\r\n", rows, ""), newline="")


def write_convergence_csv(path, log, m):
    """One row per iteration: iter, compliance, g1..gm, max_dx; a record
    with other than ``m`` volume measures raises ``InvalidArgumentError``."""
    for r in log.records:
        if len(r.volume_measures) != m:
            raise InvalidArgumentError(
                f"iteration {r.iteration} has {len(r.volume_measures)} "
                f"volume measures, not {m}")
    rows = np.array([[r.iteration, r.compliance, *r.volume_measures,
                      r.max_design_change] for r in log.records])
    _write_csv(path, ["iter", "compliance", *[f"g{j + 1}" for j in range(m)],
                      "max_dx"],
               ",".join(["%d"] + ["%.12g"] * (m + 2)), rows.reshape(-1, m + 3))


def write_design_csv(path, design):
    """Raw design variables per element: id, rho1, rho2[, rho3]."""
    m = design.n_variables
    _write_csv(path, ["element", *[f"rho{j + 1}" for j in range(m)]],
               ",".join(["%d"] + ["%.17g"] * m),
               np.column_stack([np.arange(design.n_elements), design.raw]))


def write_vtk_polydata(path, mesh, design, pressure, displacement):
    """Legacy-VTK text dump: polygon cells, cell data, and point data.

    Cell data holds the filtered topology density and the physical density of
    each material phase; point data holds the nodal pressure and the
    displacement vector of each node.
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
    lines.append(_lines("%.17g %.17g 0", mesh.nodes))
    nel = mesh.n_elements
    lines.append(f"POLYGONS {nel} {nel * 7}")
    lines.append(_lines("6" + " %d" * 6, mesh.elements))

    lines.append(f"CELL_DATA {nel}")
    cell_fields = [("topology", design.filtered[:, 0])]
    cell_fields += [(f"material_{j + 1}_density", phases[:, j]) for j in range(m)]
    for name, values in cell_fields:
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.append(_lines("%.17g", values[:, None]))

    lines += [f"POINT_DATA {mesh.n_nodes}", "SCALARS pressure double 1",
              "LOOKUP_TABLE default", _lines("%.17g", pressure[:, None]),
              "VECTORS displacement double",
              _lines("%.17g %.17g 0",
                     displacement[:2 * mesh.n_nodes].reshape(-1, 2))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_material_svg(path, mesh, design, pressure=None):
    """Render the hexagons colored by their dominant phase.

    The stiffest material is black, softer ones orange then gold, void white;
    an optional overlay of ``_N_ISOLINES`` pressure isolines is drawn in blue.
    """
    m = design.n_variables
    phases = material_phase_densities(design.filtered, m)
    void = 1.0 - design.filtered[:, 0]
    shares = np.column_stack([void, phases])
    dominant = shares.argmax(axis=1)

    colors = [_VOID_COLOR] + _material_colors(m)[::-1]
    scale = _SVG_WIDTH_PX / mesh.Lx
    height_px = mesh.Ly * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH_PX:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {_SVG_WIDTH_PX:.2f} '
        f'{height_px:.2f}">',
        f'<rect width="100%" height="100%" fill="{_VOID_COLOR}"/>',
    ]
    coords = mesh.nodes * scale
    coords = np.column_stack([coords[:, 0], height_px - coords[:, 1]])
    points = " ".join(["%.2f,%.2f"] * 6)
    polygons = [f'<polygon points="{points}" fill="{color}"/>'
                for color in colors]
    shown = np.flatnonzero(np.asarray(colors)[dominant] != _VOID_COLOR)
    if shown.size:
        parts.append("\n".join([polygons[d] for d in dominant[shown]])
                     % tuple(coords[mesh.elements[shown]].ravel().tolist()))

    if pressure is not None and np.ptp(pressure) > 0:
        levels = np.linspace(pressure.min(), pressure.max(),
                             _N_ISOLINES + 2)[1:-1]
        ends = _pressure_isolines(mesh, pressure, levels) * scale
        ends[:, :, 1] = height_px - ends[:, :, 1]
        if ends.size:
            parts.append(_lines(
                '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                'stroke="#1f77b4" stroke-width="0.6"/>', ends))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _pressure_isolines(mesh, pressure, levels):
    """Level-set segments from linear interpolation on the centroid fans,
    (n_segments, 2, 2): level by level, fan triangle by triangle."""
    segments = [np.empty((0, 2, 2))]
    conn = mesh.elements
    verts = mesh.nodes[conn]                      # (nel, 6, 2)
    pv = pressure[conn]                           # (nel, 6)
    centers = verts.mean(axis=1)
    pc = pv.mean(axis=1)
    fans = [(np.stack([centers, verts[:, k], verts[:, (k + 1) % 6]], axis=1),
             np.stack([pc, pv[:, k], pv[:, (k + 1) % 6]], axis=1))
            for k in range(6)]
    for level in levels:
        for tri_xy, tri_p in fans:
            segments.append(_triangle_crossings(tri_xy, tri_p, level))
    return np.concatenate(segments)


def _triangle_crossings(xy, p, level):
    """Isoline segments of one triangle batch, (n_crossing, 2, 2); xy
    (n,3,2), p (n,3).  A crossed triangle has exactly two crossed edges,
    taken in the order (0, 1), (1, 2), (2, 0)."""
    above = p > level
    crossing = (above.sum(axis=1) % 3) != 0
    xy, p, above = xy[crossing], p[crossing], above[crossing]
    b = [1, 2, 0]
    crossed = above != above[:, b]
    # edges that are not crossed may divide by zero; they are dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - p) / (p[:, b] - p)
        points = xy + t[:, :, None] * (xy[:, b] - xy)
    return points[crossed].reshape(-1, 2, 2)
