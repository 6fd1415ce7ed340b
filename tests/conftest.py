import numpy as np
import pytest

from presstopo import config, driver, fields, honeymesh


def regular_hexagon(radius=1.0, center=(0.0, 0.0), twist=0.0):
    ang = np.arange(6) * np.pi / 3 + twist
    return np.column_stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]
    )


def random_convex_hexagon(rng, radius=1.0):
    """Random strictly convex hexagon: jittered angles and radii."""
    ang = np.sort(rng.uniform(0, 2 * np.pi, 6))
    while np.min(np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))) < 0.3:
        ang = np.sort(rng.uniform(0, 2 * np.pi, 6))
    r = rng.uniform(0.7, 1.3, 6) * radius
    v = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    edges = np.roll(v, -1, axis=0) - v
    cross = np.roll(edges, 1, axis=0)[:, 0] * edges[:, 1] - \
        np.roll(edges, 1, axis=0)[:, 1] * edges[:, 0]
    if np.any(cross <= 1e-6):
        return random_convex_hexagon(rng, radius)
    return v


def arch_config(nex=12, ney=8, n_materials=2, max_iterations=3, **overrides):
    """Small arch-like problem; support patches sized for coarse meshes."""
    e = (40e6, 100e6) if n_materials == 2 else (10e6, 40e6, 100e6)
    vf = (0.1, 0.1) if n_materials == 2 else (0.1, 0.1, 0.05)
    kwargs = dict(
        lx=0.2,
        ly=0.1,
        nex=nex,
        ney=ney,
        e_moduli=e,
        volume_fractions=vf,
        supports=(
            config.SupportSpec("bottom", 0.0, 0.2),
            config.SupportSpec("bottom", 0.8, 1.0),
        ),
        max_iterations=max_iterations,
    )
    kwargs.update(overrides)
    return config.ProblemConfig(**kwargs).validate()


@pytest.fixture(scope="session")
def mesh_3x2():
    return honeymesh.generate_mesh(3, 2, 0.3, 0.2)


@pytest.fixture(scope="session")
def mesh_5x4():
    return honeymesh.generate_mesh(5, 4, 1.0, 0.8)


@pytest.fixture(scope="session")
def arch_fixture():
    """12x8 two-material arch problem with solved states at a random design."""
    cfg = arch_config()
    mesh, filt, materials, flow, fixed = driver.build_problem(cfg)
    rng = np.random.default_rng(42)
    raw = rng.uniform(0.15, 0.85, size=(mesh.n_elements, 2))
    design = driver.make_design(raw, filt, mesh, materials)
    estate = driver.analyze(design, mesh, materials, flow, fixed,
                            cfg.pressure_bc)
    return dict(cfg=cfg, mesh=mesh, filt=filt, materials=materials, flow=flow,
                fixed=fixed, raw=raw, design=design, estate=estate)


def boundary_edges(mesh):
    """Edges that appear in exactly one element."""
    from collections import Counter

    count = Counter()
    for el in mesh.elements:
        for a in range(6):
            count[tuple(sorted((el[a], el[(a + 1) % 6])))] += 1
    return {e for e, c in count.items() if c == 1}, count


# lattice half-steps (sx, sy) of the shipped piston (180x120 elements on
# 0.12 x 0.04) and arch (200x100 on 0.2 x 0.1) meshes: a lattice spans
# 3 nex + 1 half-steps in x and 2 ney + 1 in y
SHIPPED_HALF_STEPS = {"piston": (0.12 / 541, 0.04 / 241),
                      "arch": (0.2 / 601, 0.1 / 201)}


def shipped_shape_mesh(nex, ney, shape):
    """An ``nex x ney`` honeycomb of the shipped ``shape``'s elements."""
    sx, sy = SHIPPED_HALF_STEPS[shape]
    kx, ky = honeymesh.generate_mesh(nex, ney, 1.0, 1.0).node_lattice.max(
        axis=0)
    return honeymesh.generate_mesh(nex, ney, kx * sx, ky * sy)


def make_uniform_design(mesh, values, thickness=1e-3):
    raw = np.tile(np.asarray(values, dtype=float), (mesh.n_elements, 1))
    return fields.DesignField(
        raw=raw,
        filtered=raw.copy(),
        element_volumes=mesh.element_areas() * thickness,
        thickness=thickness,
    )
