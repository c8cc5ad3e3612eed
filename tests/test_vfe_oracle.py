"""The tangent-flow kernel against a slow full-grid reference.

The reference is the direct method of lines: the periodic second
difference built with np.roll, T x T_ss with np.cross, a classical RK4
step on all n samples and renormalization after every step.  evolve
steps only a fundamental domain of n/(2M) or n/M samples (or the whole
grid with R = I), writes T x T_ss as T x (T+ + T-) / ds^2 and sums the
stages in another order, so the two agree to rounding, not bit for bit.
"""

import math

import numpy as np
import pytest

from polyfil import vfe

TOL = 1e-12


def reference_second_derivative(samples, ds):
    return (np.roll(samples, -1, axis=0) - 2.0 * samples + np.roll(samples, 1, axis=0)) / ds**2


def reference_rhs(samples, ds):
    return np.cross(samples, reference_second_derivative(samples, ds))


def reference_step(samples, dt, ds):
    k1 = reference_rhs(samples, ds)
    k2 = reference_rhs(samples + 0.5 * dt * k1, ds)
    k3 = reference_rhs(samples + 0.5 * dt * k2, ds)
    k4 = reference_rhs(samples + dt * k3, ds)
    return samples + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_evolve(field, t_target, config):
    dt, ds = config.dt, config.ds
    remaining = t_target - field.time
    n_full = int(remaining // dt)
    tail = remaining - n_full * dt
    samples = field.samples.copy()
    for step in range(n_full + 1):
        h = dt if step < n_full else tail
        if h <= 1e-16 * max(1.0, t_target):
            continue
        samples = reference_step(samples, h, ds)
        samples /= np.linalg.norm(samples, axis=1)[:, None]
    return samples


def random_unit_field(n, seed):
    samples = np.random.default_rng(seed).normal(size=(n, 3))
    return samples / np.linalg.norm(samples, axis=1, keepdims=True)


def z_rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def equivariant_field(M, cells, seed):
    """A random field with T[j + cells] = R T[j], R the rotation by 2*pi/M."""
    block = random_unit_field(cells, seed)
    return np.vstack([block @ z_rotation(2 * math.pi * k / M).T for k in range(M)])


def half_turn(angle):
    """Rotation by pi about the horizontal axis at `angle`."""
    c, s = math.cos(2 * angle), math.sin(2 * angle)
    return np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])


def mirrored_field(M, half, seed, kick=0.0):
    """A random field with T[j + m] = R T[j] and T[m - 1 - j] = R_b T[j],
    m = 2 * half and R_b = diag(1, -1, -1), and so T[n - 1 - j] = R_a T[j]
    with R_a the half turn about the axis at -pi/M.  kick moves one sample
    of each block, which breaks the reflection and keeps the rotation."""
    block = random_unit_field(half, seed)
    domain = np.vstack([block, block[::-1] @ half_turn(0.0).T])
    domain[0, 2] += kick
    domain[0] /= np.linalg.norm(domain[0])
    return np.vstack([domain @ z_rotation(2 * math.pi * k / M).T for k in range(M)])


def record_rk4_shapes(monkeypatch):
    shapes = []
    step = vfe.rk4_step

    def recording(samples, *rest):
        shapes.append(samples.shape)
        return step(samples, *rest)

    monkeypatch.setattr(vfe, "rk4_step", recording)
    return shapes


@pytest.mark.parametrize("M, p, q, n", [
    (3, 1, 1, 96),
    (3, 1, 2, 96),
    (5, 2, 3, 150),
    (5, 1, 4, 160),
    (8, 1, 1, 128),
    (8, 3, 2, 128),
    # half domains of one cell, narrower than the four-column halo
    (4, 1, 1, 8),
    (5, 1, 1, 10),
])
def test_polygon_evolution_matches_full_grid_reference(monkeypatch, M, p, q, n):
    cfg = vfe.SimulationConfig(M=M, p=p, q=q, grid_points=n)
    start = vfe.initial_tangent(M, n)
    shapes = record_rk4_shapes(monkeypatch)
    evolved = vfe.evolve(start, cfg.rational_time, cfg)
    assert shapes and set(shapes) == {(n // (2 * M), 3)}
    reference = reference_evolve(start, cfg.rational_time, cfg)
    assert np.abs(evolved.samples - reference).max() <= TOL


@pytest.mark.parametrize("n", [99, 3])
def test_odd_block_polygon_steps_rotation_domain(monkeypatch, n):
    # m = n/M (33, or one cell) is odd, so there is no half domain
    M, p, q = 3, 1, 1
    cfg = vfe.SimulationConfig(M=M, p=p, q=q, grid_points=n)
    start = vfe.initial_tangent(M, n)
    shapes = record_rk4_shapes(monkeypatch)
    evolved = vfe.evolve(start, cfg.rational_time, cfg)
    assert shapes and set(shapes) == {(n // M, 3)}
    reference = reference_evolve(start, cfg.rational_time, cfg)
    assert np.abs(evolved.samples - reference).max() <= TOL


@pytest.mark.parametrize("kick, cells", [(0.0, 8), (1e-11, 16)])
def test_mirrored_field_steps_half_domain_unless_kicked(monkeypatch, kick, cells):
    M, half = 4, 8
    n = 2 * M * half
    samples = mirrored_field(M, half, seed=13, kick=kick)
    mirror = np.abs(samples[::-1] - samples @ half_turn(-math.pi / M).T).max()
    assert (mirror <= 1e-15) if kick == 0.0 else (mirror > 1e-12)
    cfg = vfe.SimulationConfig(M=M, p=1, q=1, grid_points=n, dt_factor=0.1)
    start = vfe.TangentField(0.0, samples)
    shapes = record_rk4_shapes(monkeypatch)
    evolved = vfe.evolve(start, 0.003, cfg)
    assert shapes and set(shapes) == {(cells, 3)}
    assert np.abs(evolved.samples - reference_evolve(start, 0.003, cfg)).max() <= TOL


@pytest.mark.parametrize("n", [60, 3])
def test_random_field_takes_periodic_path_and_matches(monkeypatch, n):
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=n, dt_factor=0.1)
    start = vfe.TangentField(0.0, random_unit_field(n, seed=7))
    shapes = record_rk4_shapes(monkeypatch)
    evolved = vfe.evolve(start, 0.003, cfg)
    assert shapes and set(shapes) == {(n, 3)}
    assert np.abs(evolved.samples - reference_evolve(start, 0.003, cfg)).max() <= TOL


def test_equivariant_field_steps_fundamental_domain(monkeypatch):
    M, cells = 5, 12
    n = M * cells
    cfg = vfe.SimulationConfig(M=M, p=1, q=1, grid_points=n, dt_factor=0.1)
    start = vfe.TangentField(0.0, equivariant_field(M, cells, seed=3))
    shapes = record_rk4_shapes(monkeypatch)
    evolved = vfe.evolve(start, 0.003, cfg)
    assert shapes and set(shapes) == {(cells, 3)}
    assert len(shapes) == math.ceil(0.003 / cfg.dt)
    assert np.abs(evolved.samples - reference_evolve(start, 0.003, cfg)).max() <= TOL


def test_rotation_ghost_step_matches_reference():
    # a fundamental domain stepped with its rotated continuation, against
    # the reference step of the full periodic field
    M, cells = 4, 12
    n = M * cells
    ds = 2 * math.pi / n
    dt = 0.1 * ds**2
    full = equivariant_field(M, cells, seed=5)
    work = vfe.Workspace(n, M, False)
    domain = vfe.rk4_step(full[:cells], dt, ds, work)
    assert np.abs(domain - reference_step(full, dt, ds)[:cells]).max() <= TOL


def test_rk4_step_matches_reference_and_leaves_input():
    n = 64
    ds = 2 * math.pi / n
    samples = random_unit_field(n, seed=2)
    before = samples.copy()
    stepped = vfe.rk4_step(samples, 0.1 * ds**2, ds, vfe.Workspace(n, 1, False))
    assert stepped.shape == (n, 3)
    assert np.array_equal(samples, before)
    assert np.abs(stepped - reference_step(samples, 0.1 * ds**2, ds)).max() <= TOL


@pytest.mark.parametrize("copies, reflected, samples", [
    (1, False, random_unit_field(36, seed=4)),
    (4, False, equivariant_field(4, 9, seed=8)),
    (4, True, mirrored_field(4, 5, seed=9)),
    # one stepped cell, narrower than the halo
    (4, True, mirrored_field(4, 1, seed=10)),
])
def test_workspace_unfolds_its_domain_to_the_field(copies, reflected, samples):
    n = len(samples)
    work = vfe.Workspace(n, copies, reflected)
    cells = len(work.cells)
    assert cells == n // copies // (2 if reflected else 1)
    work.cells[...] = samples[:cells]
    full = work.unfold()
    if copies == 1:
        assert np.array_equal(full, samples)
    assert np.abs(full - samples).max() <= 1e-15


@pytest.mark.parametrize("n, copies, reflected", [
    (12, 5, False),  # 5 does not divide 12
    (20, 4, True),  # a reflected block of 5 samples
    (12, 0, False),
    (0, 1, False),
])
def test_workspace_rejects_a_domain_that_does_not_tile_the_grid(n, copies, reflected):
    with pytest.raises(ValueError, match="do not tile a grid"):
        vfe.Workspace(n, copies, reflected)
