import math
import tracemalloc

import numpy as np
import pytest

from polyfil import vfe
from polyfil.errors import BlowUp, GridNotDivisible, NotCoprime, RangeError
from test_vfe_oracle import continued_workspace


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_config_defaults_and_validation():
    cfg = vfe.SimulationConfig(M=5, p=1, q=3)
    assert cfg.grid_points == vfe.DEFAULT_GRID_MULTIPLIER * 15
    assert cfg.expected_sides == 15
    assert abs(cfg.rational_time - 2 * math.pi / 75) < 1e-15
    assert vfe.SimulationConfig(M=3, p=1, q=2).expected_sides == 3
    with pytest.raises(NotCoprime):
        vfe.SimulationConfig(M=5, p=2, q=4)
    with pytest.raises(GridNotDivisible):
        vfe.SimulationConfig(M=5, p=1, q=3, grid_points=1000)
    with pytest.raises(ValueError):
        vfe.SimulationConfig(M=2, p=1, q=1)
    for grid in (0, -3, -15):
        with pytest.raises(ValueError):
            vfe.SimulationConfig(M=3, p=1, q=1, grid_points=grid)


def test_initial_tangent_m3_exact():
    field = vfe.initial_tangent(3, 6)
    half = math.sqrt(3) / 2
    expected = np.array([
        [1, 0, 0], [1, 0, 0],
        [-0.5, half, 0], [-0.5, half, 0],
        [-0.5, -half, 0], [-0.5, -half, 0],
    ])
    assert np.allclose(field.samples, expected, atol=1e-15)
    assert field.time == 0.0


def test_initial_tangent_properties():
    for m in (3, 5, 8):
        field = vfe.initial_tangent(m, 40 * m)
        norms = np.linalg.norm(field.samples, axis=1)
        assert np.abs(norms - 1).max() < 1e-15
        assert np.abs(field.samples[:, 2]).max() == 0.0
        # the m distinct directions are roots of unity and cancel
        assert np.abs(field.samples.sum(axis=0)).max() < 1e-10
    with pytest.raises(GridNotDivisible):
        vfe.initial_tangent(5, 33)


def test_tangent_field_requires_unit_samples():
    with pytest.raises(ValueError):
        vfe.TangentField(0.0, np.ones((10, 3)))


def test_tangent_field_rejects_non_finite_samples():
    for bad in (math.nan, math.inf):
        samples = vfe.initial_tangent(3, 12).samples.copy()
        samples[4, 0] = bad
        with pytest.raises(ValueError):
            vfe.TangentField(0.0, samples)


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_tangent_field_rejects_non_finite_time(time):
    with pytest.raises(ValueError, match="time must be finite"):
        vfe.TangentField(time, vfe.initial_tangent(3, 12).samples)


def test_config_rejects_non_finite_dt_factor():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            vfe.SimulationConfig(M=3, p=1, q=1, dt_factor=bad)


def test_evolve_zero_time_is_identity():
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    field = vfe.initial_tangent(3, 96)
    out = vfe.evolve(field, 0.0, cfg)
    assert np.array_equal(out.samples, field.samples)


def test_constant_field_is_fixed_point():
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=90)
    constant = vfe.TangentField(0.0, np.tile([1.0, 0.0, 0.0], (90, 1)))
    out = vfe.evolve(constant, 0.05, cfg)
    assert np.array_equal(out.samples, constant.samples)
    assert out.time == 0.05


def test_evolve_takes_at_most_max_steps(monkeypatch):
    # the cap is checked before the first step: a target MAX_STEPS steps
    # away reaches the (stubbed) stepper, one a few steps further does not
    class Stepped(Exception):
        pass

    def stepper(*args, **kwargs):
        raise Stepped

    monkeypatch.setattr(vfe, "rk4_step", stepper)
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    field = vfe.initial_tangent(3, 96)
    with pytest.raises(Stepped):
        vfe.evolve(field, cfg.dt * vfe.MAX_STEPS, cfg)
    with pytest.raises(RangeError, match="more than MAX_STEPS"):
        vfe.evolve(field, cfg.dt * (vfe.MAX_STEPS + 10), cfg)


def test_evolve_rejects_backward_time():
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    field = vfe.TangentField(1.0, vfe.initial_tangent(3, 96).samples)
    with pytest.raises(RangeError):
        vfe.evolve(field, 0.5, cfg)


@pytest.mark.parametrize("t_target", [math.nan, math.inf])
def test_evolve_rejects_non_finite_time(t_target):
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    with pytest.raises(RangeError):
        vfe.evolve(vfe.initial_tangent(3, 96), t_target, cfg)


def test_warm_rk4_step_allocates_no_buffers():
    cfg = vfe.SimulationConfig(M=5, p=1, q=3, grid_points=1920)
    work = continued_workspace(384, np.eye(3))
    work.cells[...] = vfe.initial_tangent(5, 1920).samples[:384]
    for _ in range(3):
        vfe.rk4_step(work.cells, cfg.dt, cfg.ds, work)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        vfe.rk4_step(work.cells, cfg.dt, cfg.ds, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (3, 384) buffer alone would take 9 KB
    assert peak <= 2048


def test_warm_evolve_step_loop_allocates_nothing(monkeypatch):
    # tracemalloc's peak over the step loop, from the first rk4_step call
    # to the last, above the memory traced at the first: flat in the step
    # count, and below one (3, 192) buffer of the pentagon's domain (4.6 KB)
    cfg = vfe.SimulationConfig(M=5, p=1, q=3, grid_points=1920)
    field = vfe.initial_tangent(5, 1920)
    step, mark = vfe.rk4_step, {}

    def marking(*args):
        if not mark:
            tracemalloc.reset_peak()
            mark["base"] = tracemalloc.get_traced_memory()[0]
        mark["peak"] = tracemalloc.get_traced_memory()[1]
        return step(*args)

    monkeypatch.setattr(vfe, "rk4_step", marking)
    vfe.evolve(field, 3 * cfg.dt, cfg)

    def loop_peak(steps):
        mark.clear()
        tracemalloc.start()
        try:
            out = vfe.evolve(field, steps * cfg.dt, cfg)
        finally:
            tracemalloc.stop()
        assert out.steps >= steps - 1
        return mark["peak"] - mark["base"]

    short, long = loop_peak(2), loop_peak(200)
    assert abs(long - short) <= 1024
    assert long <= 2048


def test_step_weights_built_once_per_step_size(monkeypatch):
    built = []
    set_weights = vfe.Workspace._set_weights

    def recording(work, dt, ds):
        built.append(dt)
        set_weights(work, dt, ds)

    monkeypatch.setattr(vfe.Workspace, "_set_weights", recording)
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    vfe.evolve(vfe.initial_tangent(3, 96), cfg.rational_time, cfg)
    # one full step size and one shortened last step
    assert len(built) == 2
    assert built[0] == cfg.dt > built[1]


def test_evolve_records_steps_and_norm_deviation():
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    field = vfe.initial_tangent(3, 96)
    assert (field.steps, field.max_norm_deviation) == (0, 0.0)
    out = vfe.evolve(field, cfg.rational_time, cfg)
    # the schedule: full steps of dt, then the shortened last one
    n_full = int(cfg.rational_time // cfg.dt)
    assert cfg.rational_time - n_full * cfg.dt > 0
    assert out.steps == n_full + 1
    # inside the blow-up guard's bound: a norm in [0.5, 2] is at most 1
    # away from 1
    assert math.isfinite(out.max_norm_deviation)
    assert 0 < out.max_norm_deviation <= 1.0


def test_unstable_step_blows_up():
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96, dt_factor=100.0)
    field = vfe.initial_tangent(3, 96)
    with pytest.raises(BlowUp):
        vfe.evolve(field, cfg.rational_time, cfg)


def test_non_finite_step_blows_up(monkeypatch):
    monkeypatch.setattr(vfe, "rk4_step", lambda samples, *rest: np.full(samples.shape, np.nan))
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    with pytest.raises(BlowUp):
        vfe.evolve(vfe.initial_tangent(3, 96), cfg.rational_time, cfg)


def test_evolve_renormalizes_a_step_returned_as_a_new_array(monkeypatch):
    # a stepper that returns its own array, not work.stepped: evolve copies
    # it in before renormalizing, so every step scales the unit samples by
    # 1.5 and renormalization takes them back
    monkeypatch.setattr(vfe, "rk4_step", lambda samples, *rest: 1.5 * samples)
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=96)
    field = vfe.initial_tangent(3, 96)
    out = vfe.evolve(field, cfg.rational_time, cfg)
    assert out.steps > 1
    assert np.abs(np.linalg.norm(out.samples, axis=1) - 1).max() <= 1e-15
    assert np.abs(out.samples - field.samples).max() <= 1e-15
    assert abs(out.max_norm_deviation - 0.5) <= 1e-15


def test_workspace_requires_a_full_halo_table():
    with pytest.raises(ValueError, match="needs 8 sources and 8 matrices, got 4 and 4"):
        vfe.Workspace(12, ([0, 1, 2, 3], [np.eye(3)] * 4))


def test_workspace_requires_halo_sources_among_the_samples():
    # rk4_step gathers with mode="clip", which would read such a source
    # as the last (or first) sample without a word
    offsets = [*range(-4, 0), *range(12, 16)]
    sources = [i % 12 for i in offsets]
    sources[-1] = 19
    with pytest.raises(ValueError, match=r"sample in \[0, 12\), got .*19"):
        vfe.Workspace(12, (sources, [np.eye(3)] * 8))
    sources[-1] = -1
    with pytest.raises(ValueError, match=r"sample in \[0, 12\)"):
        vfe.Workspace(12, (sources, [np.eye(3)] * 8))


def test_workspace_requires_3x3_halo_matrices():
    offsets = [*range(-4, 0), *range(12, 16)]
    matrices = [np.eye(3)] * 7 + [np.eye(2)]
    with pytest.raises(ValueError, match="every halo matrix must be 3x3"):
        vfe.Workspace(12, ([i % 12 for i in offsets], matrices))


def test_norms_enforced_after_evolution():
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=240)
    out = vfe.evolve(vfe.initial_tangent(3, 240), cfg.rational_time, cfg)
    assert np.abs(np.linalg.norm(out.samples, axis=1) - 1).max() <= 1e-8


def test_smooth_field_step_drift_is_tiny():
    # per-step norm drift before renormalization, measured on a smooth
    # field; corner data at the default dt_factor drifts more (the raw
    # jump concentrates curvature in one cell) and is guarded by the
    # blow-up check instead
    n = 256
    s = 2 * math.pi * np.arange(n) / n
    tilt = 0.6
    samples = np.stack([
        math.cos(tilt) * np.cos(s), math.cos(tilt) * np.sin(s),
        math.sin(tilt) * np.ones(n),
    ], axis=1)
    field = vfe.TangentField(0.0, samples)
    cfg = vfe.SimulationConfig(M=4, p=1, q=1, grid_points=n)
    current = field.samples
    work = continued_workspace(n, np.eye(3))
    for _ in range(50):
        stepped = vfe.rk4_step(current, cfg.dt, cfg.ds, work)
        norms = np.linalg.norm(stepped, axis=1)
        assert np.abs(norms - 1).max() <= 1e-6
        current = stepped / norms[:, None]


def test_measure_plateaus_synthetic_exact():
    # twelve exact skew plateaus: a cone around z turning by 2*pi/12 per
    # block, so every cyclic adjacent angle is the same
    sides, per_block, z = 12, 20, 0.4
    alpha = 2 * math.pi / sides
    c = math.sqrt(1 - z * z)
    dirs = np.array([
        [c * math.cos(b * alpha), c * math.sin(b * alpha), z] for b in range(sides)
    ])
    samples = np.repeat(dirs, per_block, axis=0)
    field = vfe.TangentField(0.0, samples)
    report = vfe.measure_plateaus(field, sides)
    expected = math.acos(c * c * math.cos(alpha) + z * z)
    assert np.allclose(report.adjacent_angles, expected, atol=1e-12)
    assert report.angle_spread < 1e-12
    assert abs(report.angle_median - expected) < 1e-12


def test_measure_plateaus_initial_polygon():
    for m in (3, 5, 7):
        field = vfe.initial_tangent(m, 64 * m)
        report = vfe.measure_plateaus(field, m)
        assert np.allclose(report.adjacent_angles, 2 * math.pi / m, atol=1e-12)
        assert report.angle_spread < 1e-12
        assert abs(report.angle_median - 2 * math.pi / m) < 1e-12


@pytest.mark.parametrize("length", [1, 2, 3, 4, 15, 16, 30])
def test_median_equals_np_median_bit_for_bit(length):
    rng = np.random.default_rng(length)
    for values in (rng.uniform(0.0, math.pi, length),
                   np.full(length, 2 * math.pi / 5),
                   np.repeat(rng.uniform(0.0, math.pi, 2), [length // 2, length - length // 2])):
        assert vfe._median(values).hex() == float(np.median(values)).hex()
    values = rng.uniform(0.0, math.pi, length)
    values[length // 2] = math.nan
    assert math.isnan(vfe._median(values)) and math.isnan(np.median(values))


def test_measure_plateaus_validation():
    field = vfe.initial_tangent(3, 96)
    with pytest.raises(GridNotDivisible):
        vfe.measure_plateaus(field, 5)


def test_detect_sides_on_clean_fields():
    assert vfe.detect_sides(vfe.initial_tangent(5, 640)) == 5
    assert vfe.detect_sides(vfe.initial_tangent(7, 7 * 64)) == 7
    constant = vfe.TangentField(0.0, np.tile([0.0, 0.0, 1.0], (256, 1)))
    assert vfe.detect_sides(constant) == 0  # nothing turns


def test_reconstruct_curve_closes_polygon():
    field = vfe.initial_tangent(5, 400)
    curve = vfe.reconstruct_curve(field)
    gap = np.linalg.norm(curve.positions[-1] - curve.positions[0])
    assert gap <= 1e-10
    assert abs(curve.mean_height) < 1e-14
    assert curve.positions.shape == (401, 3)


def test_reconstruct_curve_constant_field():
    n = 100
    field = vfe.TangentField(0.0, np.tile([0.0, 1.0, 0.0], (n, 1)))
    curve = vfe.reconstruct_curve(field)
    ds = 2 * math.pi / n
    diffs = np.diff(curve.positions, axis=0)
    # straight segment: every step is exactly ds along the tangent
    assert np.allclose(np.linalg.norm(diffs, axis=1), ds, rtol=1e-12)
    assert np.allclose(curve.positions[0], [0.0, 0.0, 0.0])
    assert np.allclose(curve.positions[-1], [0.0, 2 * math.pi, 0.0], atol=1e-12)


def test_reconstruct_curve_step_lengths_on_polygon():
    # inside plateaus the trapezoidal step length is exactly ds; the M
    # corner cells are shortened by the secant factor cos(pi/M)
    m, n = 5, 400
    curve = vfe.reconstruct_curve(vfe.initial_tangent(m, n))
    ds = 2 * math.pi / n
    lengths = np.linalg.norm(np.diff(curve.positions, axis=0), axis=1)
    short = lengths < ds * (1 - 1e-9)
    assert short.sum() == m
    assert np.allclose(lengths[~short], ds, rtol=1e-12)
    assert np.allclose(lengths[short], ds * math.cos(math.pi / m), rtol=1e-12)


def test_polygon_angle_pipeline_coarse_q1():
    cfg = vfe.SimulationConfig(M=3, p=1, q=1, grid_points=240)
    report = vfe.verify_polygon_angle(cfg)
    assert report.sides == 3
    assert report.predicted_rho == pytest.approx(2 * math.pi / 3)
    assert report.relative_error < 0.05


def test_polygon_angle_pipeline_pentagon_modest_grid():
    # a faster stand-in for the full acceptance run (which uses grid 1920)
    cfg = vfe.SimulationConfig(M=5, p=1, q=3, grid_points=960)
    report = vfe.verify_polygon_angle(cfg)
    assert report.sides == 15
    assert report.detected_sides == 15
    assert report.relative_error < 0.05


def test_polygon_angle_even_q_branch():
    # q = 4: M*q/2 sides, corners aligned with s = 0 blocks, and the
    # predicted angle pi/2 differs from the planar value 2*pi/3
    cfg = vfe.SimulationConfig(M=3, p=1, q=4, grid_points=1536)
    report = vfe.verify_polygon_angle(cfg)
    assert report.sides == 6
    assert report.detected_sides == 6
    assert report.predicted_rho == pytest.approx(math.pi / 2)
    assert report.relative_error < 0.05


def test_polygon_angle_is_p_independent():
    # p changes the time but not the predicted angle or side count
    cfg = vfe.SimulationConfig(M=5, p=2, q=3, grid_points=960)
    report = vfe.verify_polygon_angle(cfg)
    assert report.sides == 15
    assert report.predicted_rho == pytest.approx(0.74295, abs=5e-5)
    assert report.relative_error < 0.05


def test_planarity_breaking_at_skew_time():
    cfg = vfe.SimulationConfig(M=5, p=1, q=3, grid_points=960)
    start = vfe.initial_tangent(5, 960)
    assert np.abs(start.samples[:, 2]).max() == 0.0
    evolved = vfe.evolve(start, cfg.rational_time, cfg)
    assert np.abs(evolved.samples[:, 2]).max() > 0.01
    # the reconstructed curve is genuinely skew (base-pinned, so only the
    # magnitude of the mean height is meaningful)
    curve = vfe.reconstruct_curve(evolved)
    assert abs(curve.mean_height) > 0.01


def test_center_of_mass_drifts_upward():
    # the uniform vertical translation of the curve is invisible in the
    # base-pinned reconstruction; its rate is measurable from the field
    start = vfe.initial_tangent(5, 960)
    assert vfe.vertical_drift_rate(start) > 0.0
    cfg = vfe.SimulationConfig(M=5, p=1, q=3, grid_points=960)
    evolved = vfe.evolve(start, cfg.rational_time, cfg)
    assert vfe.vertical_drift_rate(evolved) > 0.0


def test_rms_distance():
    a = vfe.initial_tangent(3, 96)
    b = vfe.TangentField(0.0, np.roll(a.samples, 1, axis=0))
    assert vfe.rms_distance(a, a) == 0.0
    assert vfe.rms_distance(a, b) == vfe.rms_distance(b, a) > 0.0
