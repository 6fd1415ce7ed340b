"""Problem configuration: INI-style files, validation, shipped benchmarks."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import darcy, fields
from .errors import ConfigError, InvalidArgumentError

_EDGES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class SupportSpec:
    """Zero-displacement segment of a named boundary edge.

    ``lo``/``hi`` are fractions of the edge length; ``directions`` is 'both',
    'x', or 'y'.
    """

    edge: str
    lo: float
    hi: float
    directions: str = "both"


@dataclass
class ProblemConfig:
    """Validated inputs for one optimization run."""

    lx: float
    ly: float
    nex: int
    ney: int
    e_moduli: tuple
    nu: float = fields.MaterialSet.nu
    thickness: float = fields.MaterialSet.thickness
    simp_penalty: float = fields.MaterialSet.penalty
    volume_fractions: tuple = (0.1, 0.1)
    pressure_bc: dict = field(default_factory=lambda: {"top": 1e5, "bottom": 0.0})
    supports: tuple = ()
    flow_contrast: float = darcy.FlowParams.epsilon
    flow_eta: float = darcy.FlowParams.eta_k
    flow_beta: float = darcy.FlowParams.beta_k
    drain_eta: float = darcy.FlowParams.eta_d
    drain_beta: float = darcy.FlowParams.beta_d
    drainage_remainder: float = 0.1
    drainage_depth_elements: float = 2.0
    filter_radius_elements: float = 3.0
    max_iterations: int = 100
    move_limit: float = 0.1
    step_tolerance: float = 0.0
    output_directory: str = "out"
    write_vtk: bool = True
    write_svg: bool = True
    pressure_isolines: bool = True
    log_every: int = 10
    initial_design: str | None = None
    name: str = "problem"

    def validate(self):
        errors = []
        if not all(1 <= n < np.inf and int(n) == n for n in (self.nex, self.ney)):
            errors.append("element counts must be integers >= 1")
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            errors.append("domain dimensions must be positive and finite")
        if len(self.volume_fractions) != len(self.e_moduli):
            errors.append("one volume fraction per candidate material is required")
        if not all(0 < f < np.inf for f in self.volume_fractions):
            errors.append("volume fractions must be positive and finite")
        if sum(self.volume_fractions) > 1.0 + 1e-12:
            errors.append("volume fractions must sum to at most 1")
        # the run's own constructors check the materials and the flow, and
        # the drainage rule its inputs; any positive element height will do
        for build in (self.materials, lambda: self.flow_params(1.0)):
            try:
                build()
            except InvalidArgumentError as exc:
                errors.append(str(exc))
        for edge, value in self.pressure_bc.items():
            if edge not in _EDGES:
                errors.append(f"unknown pressure edge {edge!r}")
            if not np.isfinite(value):
                errors.append(f"pressure on edge {edge!r} must be finite")
        if not self.pressure_bc:
            errors.append("at least one pressure boundary edge is required")
        for s in self.supports:
            if s.edge not in _EDGES:
                errors.append(f"unknown support edge {s.edge!r}")
            if not 0.0 <= s.lo < s.hi <= 1.0:
                errors.append(f"support segment [{s.lo}, {s.hi}] is not valid")
            if s.directions not in ("both", "x", "y"):
                errors.append(f"support direction {s.directions!r} is not valid")
        if not self.supports:
            errors.append("at least one support is required")
        if not 0.0 < self.filter_radius_elements < np.inf:
            errors.append("filter radius must be positive and finite")
        if not (0 <= self.max_iterations < np.inf
                and int(self.max_iterations) == self.max_iterations):
            errors.append("max_iterations must be an integer >= 0")
        if not 0.0 < self.move_limit <= 1.0:
            errors.append("move_limit must lie in (0, 1]")
        if not np.isfinite(self.step_tolerance):
            errors.append("step_tolerance must be finite")
        if errors:
            raise ConfigError("; ".join(errors))
        return self

    def materials(self):
        """The candidate materials of a run."""
        return fields.MaterialSet(
            e_moduli=self.e_moduli,
            nu=self.nu,
            thickness=self.thickness,
            penalty=self.simp_penalty,
        )

    def flow_params(self, element_height):
        """Flow parameters of a run on elements of ``element_height``.

        The solid drainage follows the penetration-depth rule
        (``darcy.penetration_drainage``).
        """
        flow = darcy.FlowParams(
            epsilon=self.flow_contrast,
            eta_k=self.flow_eta,
            beta_k=self.flow_beta,
            eta_d=self.drain_eta,
            beta_d=self.drain_beta,
        )
        d_solid = darcy.penetration_drainage(
            flow, element_height,
            remainder=self.drainage_remainder,
            depth_elements=self.drainage_depth_elements,
        )
        return replace(flow, d_solid=d_solid)

    @property
    def n_materials(self):
        return len(self.e_moduli)

    @property
    def filter_radius(self):
        return self.filter_radius_elements * (self.lx / self.nex)

    @property
    def constraint_bounds(self):
        """Upper bound of each volume measure: cumulative tail fractions.

        The first measure (total solid) is bounded by the sum of all material
        fractions; measure j by the fractions of materials j and stiffer.
        """
        f = np.asarray(self.volume_fractions)
        return np.cumsum(f[::-1])[::-1]


def _parse_floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _parse_supports(text):
    out = []
    for token in text.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"support spec {token!r} is not edge:lo:hi[:dirs]"
            )
        dirs = parts[3] if len(parts) == 4 else "both"
        try:
            out.append(SupportSpec(parts[0], float(parts[1]), float(parts[2]), dirs))
        except ValueError as exc:
            raise ConfigError(f"support spec {token!r}: {exc}") from exc
    return tuple(out)


# each option of a config file and the ``ProblemConfig`` field it sets; an
# option left out or empty keeps the field's default
_OPTIONS = {
    ("domain", "lx"): ("lx", float),
    ("domain", "ly"): ("ly", float),
    ("domain", "nex"): ("nex", int),
    ("domain", "ney"): ("ney", int),
    ("materials", "young_moduli"): ("e_moduli", _parse_floats),
    ("materials", "poisson"): ("nu", float),
    ("materials", "thickness"): ("thickness", float),
    ("materials", "simp_penalty"): ("simp_penalty", float),
    ("volume", "fractions"): ("volume_fractions", _parse_floats),
    ("flow", "contrast"): ("flow_contrast", float),
    ("flow", "step_eta"): ("flow_eta", float),
    ("flow", "step_beta"): ("flow_beta", float),
    ("flow", "drain_eta"): ("drain_eta", float),
    ("flow", "drain_beta"): ("drain_beta", float),
    ("flow", "drainage_remainder"): ("drainage_remainder", float),
    ("flow", "drainage_depth"): ("drainage_depth_elements", float),
    ("filter", "radius_elements"): ("filter_radius_elements", float),
    ("optimizer", "max_iterations"): ("max_iterations", int),
    ("optimizer", "move_limit"): ("move_limit", float),
    ("optimizer", "step_tolerance"): ("step_tolerance", float),
    ("output", "directory"): ("output_directory", str),
    ("output", "write_vtk"): ("write_vtk", _parse_bool),
    ("output", "write_svg"): ("write_svg", _parse_bool),
    ("output", "pressure_isolines"): ("pressure_isolines", _parse_bool),
    ("output", "log_every"): ("log_every", int),
    ("output", "initial_design"): ("initial_design", str),
}
_REQUIRED = ("lx", "ly", "nex", "ney", "e_moduli")


def load_config(path) -> ProblemConfig:
    """Parse and validate a configuration file.

    ``path`` may also name a shipped benchmark ('arch-2mat', 'piston-2mat',
    'arch-3mat', 'piston-3mat').  Options it does not read are rejected, so
    a misspelt option is an error, not a silent default; so is a non-finite
    number (``nan``, ``inf``), a boolean outside configparser's own table
    (``1/yes/true/on``, ``0/no/false/off``, any case), and an edge named as
    both pressure inlet and outlet.  The filter radius is given in element
    widths (``radius_elements``), and the solid drainage by the
    penetration-depth rule (``drainage_remainder``, ``drainage_depth``).
    """
    path = Path(path)
    if not path.exists():
        builtin = builtin_config_path(str(path))
        if builtin is None:
            raise ConfigError(f"config file not found: {path}")
        path = builtin

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    read = set()

    def get(section, option, cast, default=None):
        read.add((section, option))
        if not parser.has_option(section, option):
            return default
        raw = parser.get(section, option).strip()
        if raw == "":
            return default
        try:
            value = cast(raw)
            if cast in (float, _parse_floats) and not np.isfinite(value).all():
                raise ConfigError("must be finite")
            return value
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{section}] {option} = {raw!r}: {exc}") from exc

    options = {}
    for key, (name, cast) in _OPTIONS.items():
        value = get(*key, cast)
        if value is not None:
            options[name] = value
    missing = [name for name in _REQUIRED if name not in options]
    if missing:
        raise ConfigError(f"missing required options: {', '.join(missing)}")

    inlet = get("pressure", "inlet", str, "top").replace(",", " ").split()
    outlet = get("pressure", "outlet", str, "bottom").replace(",", " ").split()
    both = [edge for edge in inlet if edge in outlet]
    if both:
        raise ConfigError(f"[pressure] {', '.join(map(repr, both))} named as "
                          "both inlet and outlet")
    pressure_bc = dict.fromkeys(inlet, get("pressure", "inlet_value", float,
                                           1e5))
    pressure_bc.update(dict.fromkeys(outlet, get("pressure", "outlet_value",
                                                 float, 0.0)))

    supports = get("supports", "fixed", _parse_supports, ())

    unknown = [f"[{section}] {option}" for section in parser.sections()
               for option in parser.options(section)
               if (section, option) not in read]
    if unknown:
        raise ConfigError(f"unknown options: {', '.join(unknown)}")
    return ProblemConfig(**options, pressure_bc=pressure_bc,
                         supports=supports, name=path.stem).validate()


def builtin_config_path(name):
    """Filesystem path of a shipped benchmark configuration, or None."""
    filename = name if name.endswith(".cfg") else f"{name}.cfg"
    ref = resources.files("presstopo") / "configs" / filename
    with resources.as_file(ref) as concrete:
        if concrete.exists():
            return Path(concrete)
    return None


def builtin_config_names():
    folder = resources.files("presstopo") / "configs"
    return sorted(p.name[:-4] for p in folder.iterdir() if p.name.endswith(".cfg"))
