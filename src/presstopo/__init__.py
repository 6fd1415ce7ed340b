"""Topology optimization of pressure-loaded multi-material structures.

Density-based compliance minimization on honeycomb (hexagonal-element)
meshes: the design-dependent fluidic pressure field is modeled by the Darcy
law with a drainage term, materials by the extended SIMP interpolation, and
the optimization is driven by the Method of Moving Asymptotes with adjoint
sensitivities that include the load term.
"""

from .adjoint import compliance_sensitivity, constraint_sensitivities
from .config import ProblemConfig, SupportSpec, builtin_config_names, load_config
from .darcy import (
    FlowParams,
    PressureState,
    assemble_flow,
    drainage_coefficient,
    flow_coefficient,
    penetration_drainage,
    pressure_loads,
    smooth_heaviside,
    solve_pressure,
)
from .driver import RunLog, RunResult, run_optimization
from .elasticity import (
    ElasticState,
    assemble_stiffness,
    element_stiffness,
    solve_displacements,
)
from .errors import (
    ConfigError,
    GeometryError,
    IllPosedError,
    InvalidArgumentError,
    MeshError,
    OptimizerError,
    PointOutsideElementError,
    PresstopoError,
    SingularSystemError,
    SolverError,
)
from .fields import (
    DesignField,
    FilterOperator,
    MaterialSet,
    build_filter,
    interpolate_modulus,
    material_phase_densities,
    modulus_derivatives,
    volume_measures,
)
from .honeymesh import (
    Mesh,
    QuadratureRule,
    generate_mesh,
    hex_quadrature,
    wachspress_gradients,
    wachspress_shape,
)
from .mma import MmaState, mma_update
from .outputs import write_outputs

__version__ = "0.1.0"
