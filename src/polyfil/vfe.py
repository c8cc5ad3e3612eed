"""Direct numerical evolution of the tangent flow T_t = T x T_ss from a
regular-polygon tangent datum, with plateau measurement at rational times.

Scheme: method of lines with second-order central differences for T_ss
and classical fourth-order explicit time stepping, dt = dt_factor * ds^2
(the last step is shortened to land exactly on the target time).  Every
sample is renormalized to the unit sphere after every step.  The scheme
is fully deterministic for a given config.

The right-hand side is evaluated as T x (T+ + T-) / ds^2, where T+ and
T- are the neighbouring samples.  It equals T x T_ss, because the
-2T / ds^2 term of the central difference drops out of the cross
product (T x T = 0).

Fundamental-domain evolution.  The polygon datum, the flow and the
discrete scheme all commute with the symmetry "shift by m = n/M samples
and rotate by R = 2*pi/M about z".  A field with T[j + m] = R T[j] keeps
that symmetry, so only its first m samples are stepped.  They sit in a
preallocated structure-of-arrays buffer of shape (3, m + 2), whose two
ghost cells are filled with R^-1 T[m - 1] and R T[0] before every RHS
stage, and the full field is unfolded once at the end as
T[k*m + j] = R^k T[j].  evolve checks the symmetry on its input (max abs
deviation <= 1e-12); a field without it is stepped whole with R = I and
m = n, through the same code.

The initial tangent is sampled as exactly piecewise constant, jumps
between grid cells, with no mollification; that Gibbs-like transition
zones develop around corners is expected, and the plateau statistics trim
them away.  The reported angle is the median of the adjacent-plateau
angles, which is robust to the two or three worst blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import BlowUp, GridNotDivisible, NotCoprime, RangeError
from .rotor import inter_side_angle

__all__ = [
    "DEFAULT_GRID_MULTIPLIER",
    "DEFAULT_DT_FACTOR",
    "SimulationConfig",
    "TangentField",
    "PlateauReport",
    "CurveSample",
    "PolygonAngleReport",
    "initial_tangent",
    "Workspace",
    "flow_rhs",
    "rk4_step",
    "evolve",
    "rms_distance",
    "measure_plateaus",
    "detect_sides",
    "reconstruct_curve",
    "vertical_drift_rate",
    "analyze_polygon",
    "verify_polygon_angle",
]

DEFAULT_GRID_MULTIPLIER = 256
DEFAULT_DT_FACTOR = 0.4

# Plateau statistics: each block keeps its central half, and side
# detection accepts 0.2 rad of worst-block RMS deviation on blocks of at
# least 32 cells.
_TRIM_FRACTION = 0.25
_QUALITY_THRESHOLD = 0.2
_MIN_BLOCK_CELLS = 32


@dataclass(frozen=True)
class SimulationConfig:
    """One experiment: M-gon initial data evolved to t = 2*pi*p/(q*M^2).

    grid_points must be a multiple of M*q so plateau blocks align with
    the predicted sides; it defaults to DEFAULT_GRID_MULTIPLIER * M * q.
    """

    M: int
    p: int
    q: int
    grid_points: int | None = None
    dt_factor: float = DEFAULT_DT_FACTOR

    def __post_init__(self) -> None:
        if self.M < 3:
            raise ValueError(f"M must be at least 3, got {self.M}")
        if self.q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.p < 1:
            raise ValueError(f"p must be positive (forward time), got {self.p}")
        if gcd(self.p, self.q) != 1:
            raise NotCoprime(f"p/q = {self.p}/{self.q} is not irreducible")
        if not (math.isfinite(self.dt_factor) and self.dt_factor > 0):
            raise ValueError(f"dt_factor must be positive and finite, got {self.dt_factor}")
        if self.grid_points is None:
            object.__setattr__(
                self, "grid_points", DEFAULT_GRID_MULTIPLIER * self.M * self.q
            )
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be positive, got {self.grid_points}")
        if self.grid_points % (self.M * self.q) != 0:
            raise GridNotDivisible(
                f"grid_points={self.grid_points} is not a multiple of "
                f"M*q={self.M * self.q}"
            )

    @property
    def ds(self) -> float:
        return 2.0 * math.pi / self.grid_points

    @property
    def dt(self) -> float:
        return self.dt_factor * self.ds**2

    @property
    def rational_time(self) -> float:
        return 2.0 * math.pi * self.p / (self.q * self.M**2)

    @property
    def expected_sides(self) -> int:
        return self.M * self.q if self.q % 2 == 1 else self.M * self.q // 2


@dataclass(frozen=True)
class TangentField:
    """Unit tangent samples on the uniform periodic grid s_j = 2*pi*j/n."""

    time: float
    samples: np.ndarray  # shape (n, 3)

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError(f"samples must have shape (n, 3), got {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("samples must be finite")
        norms = np.linalg.norm(s, axis=1)
        if float(np.abs(norms - 1.0).max()) > 1e-8:
            raise ValueError("samples must be unit vectors (within 1e-8)")
        object.__setattr__(self, "samples", s)

    @property
    def grid_points(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class PlateauReport:
    expected_sides: int
    plateau_means: np.ndarray  # shape (expected_sides, 3), unit rows
    adjacent_angles: np.ndarray  # cyclic, same length
    angle_median: float
    angle_spread: float  # max - min


@dataclass(frozen=True)
class CurveSample:
    positions: np.ndarray  # shape (n + 1, 3); last point closes the period
    mean_height: float


@dataclass(frozen=True)
class PolygonAngleReport:
    sides: int
    detected_sides: int
    angle_median: float
    angle_spread: float
    predicted_rho: float
    relative_error: float


def initial_tangent(M: int, grid_points: int) -> TangentField:
    """Piecewise-constant tangent of the regular M-gon of length 2*pi:
    sample j points along e^(2*pi*i*k/M) with k = floor(j*M/n)."""
    if M < 3:
        raise ValueError(f"M must be at least 3, got {M}")
    if grid_points % M != 0:
        raise GridNotDivisible(f"{grid_points} grid points not divisible by M={M}")
    j = np.arange(grid_points)
    ang = 2.0 * np.pi * ((j * M) // grid_points) / M
    samples = np.stack([np.cos(ang), np.sin(ang), np.zeros(grid_points)], axis=1)
    return TangentField(time=0.0, samples=samples)


class Workspace:
    """Preallocated buffers for stepping `cells` samples; with them the
    RK4 kernel creates no arrays.

    Each buffer is a structure of arrays, one row per vector component
    and cells + 2 columns: columns 1..cells hold the samples, columns 0
    and cells + 1 are ghost cells.  Arithmetic runs over whole buffers,
    which are contiguous, so each operation is one flat numpy loop; what
    lands in the ghost columns of a result is finite and never read.

    `state` (3 rows) is the solution, handed to rk4_step as the (cells, 3)
    view `cells`.  flow_rhs reads `stage` (5 rows) and writes `rhs`.
    Rows 3 and 4 of `stage` repeat rows 0 and 1, so that T x P is two
    slice products,
    (T_y, T_z, T_x) * (P_z, P_x, P_y) - (T_z, T_x, T_y) * (P_y, P_z, P_x).
    """

    def __init__(self, cells: int) -> None:
        width = cells + 2
        self.state = np.zeros((3, width))
        self.stage = np.zeros((5, width))
        self.pair = np.zeros((5, width))  # T+ + T- at the columns of stage
        self.rhs = np.zeros((3, width))
        self.product = np.zeros((3, width))
        self.acc = np.zeros((3, width))
        self.scaled = np.zeros((3, width))
        self.norms = np.zeros(cells)
        self.cells = self.state[:, 1:-1].T
        self.stage_cells = self.stage[:3, 1:-1].T
        # views built once: at these sizes slicing on every call costs
        # about as much as the arithmetic
        self._stage_xyz = self.stage[:3]
        flat_stage, flat_pair = self.stage.ravel(), self.pair.ravel()
        self._neighbours = (flat_stage[2:], flat_stage[:-2], flat_pair[1:-1])
        self._ghosts = (self.stage[:3, -1], self.stage[:3, 1],
                        self.stage[:3, 0], self.stage[:3, cells])
        self._copy_rows = (self.stage[3:], self.stage[:2])
        self._cross = (self.stage[1:4], self.pair[2:5], self.stage[2:5], self.pair[1:4])
        self._update = (self.state[:, 1:-1], self.acc[:, 1:-1])


def flow_rhs(
    samples: np.ndarray,
    ds: float,
    rotation: np.ndarray | None = None,
    work: Workspace | None = None,
) -> np.ndarray:
    """T x T_ss = T x (T+ + T-) / ds^2 at each of the (cells, 3) samples,
    the grid continuing as T[j + cells] = rotation @ T[j] (default I, the
    periodic grid).

    Returns a (cells, 3) view of work.rhs, valid until the next call.
    Samples are read in place when they are work.stage_cells."""
    if work is None:
        work = Workspace(samples.shape[0])
    if samples is not work.stage_cells:
        np.copyto(work.stage_cells, samples)
    if rotation is None:
        rotation = np.eye(3)
    high, first, low, last = work._ghosts
    np.matmul(rotation, first, out=high)
    np.matmul(rotation.T, last, out=low)
    np.copyto(*work._copy_rows)
    upper, lower, pair = work._neighbours
    np.add(upper, lower, out=pair)
    t_yzx, p_zxy, t_zxy, p_yzx = work._cross
    np.multiply(t_yzx, p_zxy, out=work.rhs)
    np.multiply(t_zxy, p_yzx, out=work.product)
    np.subtract(work.rhs, work.product, out=work.rhs)
    work.rhs *= 1.0 / (ds * ds)
    return work.rhs[:, 1:-1].T


def rk4_step(
    samples: np.ndarray,
    dt: float,
    ds: float,
    rotation: np.ndarray | None = None,
    work: Workspace | None = None,
) -> np.ndarray:
    """One classical fourth-order step of the (cells, 3) samples, without
    renormalization; rotation is as in flow_rhs.

    The step is taken in work.state (a new Workspace without work) and
    work.cells is returned; samples are copied in first unless they
    already are work.cells."""
    if work is None:
        work = Workspace(samples.shape[0])
    if samples is not work.cells:
        np.copyto(work.cells, samples)
    state, stage, k = work.state, work._stage_xyz, work.rhs
    acc, scaled = work.acc, work.scaled
    np.copyto(stage, state)
    flow_rhs(work.stage_cells, ds, rotation, work)
    np.multiply(k, dt / 6.0, out=acc)
    for stage_weight, sum_weight in ((0.5, 1.0 / 3.0), (0.5, 1.0 / 3.0), (1.0, 1.0 / 6.0)):
        np.multiply(k, stage_weight * dt, out=scaled)
        np.add(state, scaled, out=stage)
        flow_rhs(work.stage_cells, ds, rotation, work)
        np.multiply(k, sum_weight * dt, out=scaled)
        acc += scaled
    # sample columns only, so the ghost columns of state stay zero
    inner, acc_inner = work._update
    inner += acc_inner
    return work.cells


def _z_rotation(k: int, copies: int) -> np.ndarray:
    """Rotation by 2*pi*k/copies about z; exactly I when copies divides k."""
    if k % copies == 0:
        return np.eye(3)
    angle = 2.0 * math.pi * k / copies
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _symmetry_copies(samples: np.ndarray, M: int) -> int:
    """M if T[j + n/M] = R T[j] with R the rotation by 2*pi/M about z,
    to a max abs deviation of 1e-12; otherwise 1."""
    n = samples.shape[0]
    if n % M:
        return 1
    m = n // M
    rotated = samples[:-m] @ _z_rotation(1, M).T
    return M if float(np.abs(samples[m:] - rotated).max()) <= 1e-12 else 1


def _unfold(state: np.ndarray, copies: int) -> np.ndarray:
    """The (copies * m, 3) field whose k-th block of m samples is R^k
    applied to the (3, m) fundamental domain."""
    m = state.shape[1]
    full = np.empty((copies * m, 3))
    for k in range(copies):
        np.matmul(_z_rotation(k, copies), state, out=full[k * m:(k + 1) * m].T)
    return full


def evolve(field: TangentField, t_target: float, config: SimulationConfig) -> TangentField:
    """Advance to t_target with dt = dt_factor * ds^2, renormalizing every
    sample after every step.  Only the fundamental domain of n/M samples
    is stepped when the field has the M-fold symmetry (see the module
    docstring).  Raises BlowUp if any pre-normalization norm leaves
    [0.5, 2] or is not finite."""
    if t_target < field.time:
        raise RangeError(f"t_target={t_target} is before field time {field.time}")
    if field.grid_points != config.grid_points:
        raise GridNotDivisible(
            f"field has {field.grid_points} points but config expects "
            f"{config.grid_points}"
        )
    ds = config.ds
    dt = config.dt
    remaining = t_target - field.time
    n_full = int(remaining // dt)
    tail = remaining - n_full * dt

    copies = _symmetry_copies(field.samples, config.M)
    rotation = _z_rotation(1, copies)
    work = Workspace(field.grid_points // copies)
    cells = work.cells
    cells[...] = field.samples[: cells.shape[0]]
    stepped = False
    for step in range(n_full + 1):
        h = dt if step < n_full else tail
        if h <= 1e-16 * max(1.0, t_target):
            continue
        cells = rk4_step(cells, h, ds, rotation, work)
        state, norms = cells.T, work.norms
        np.einsum("ij,ij->j", state, state, out=norms)
        np.sqrt(norms, out=norms)
        # negated so that a NaN norm fails the test as well
        if not (norms.min() >= 0.5 and norms.max() <= 2.0):
            raise BlowUp(
                f"sample norm left [0.5, 2] at t ~ {field.time + step * dt:.6g}; "
                "reduce dt_factor"
            )
        state /= norms
        stepped = True
    if not stepped:
        return TangentField(time=t_target, samples=field.samples.copy())
    return TangentField(time=t_target, samples=_unfold(cells.T, copies))


def rms_distance(a: TangentField, b: TangentField) -> float:
    """Root mean square over all 3n vector components of the difference."""
    return float(np.sqrt(np.mean((a.samples - b.samples) ** 2)))


def _trim_bounds(block: int) -> tuple[int, int]:
    """The core [lo, hi) of a block of `block` samples; never empty for
    block >= 1."""
    lo = int(round(_TRIM_FRACTION * block))
    return lo, block - lo


def _block_stats(
    samples: np.ndarray, sides: int, offset: int, lo: int, hi: int
) -> tuple[np.ndarray, float]:
    """Unit mean of the trimmed core [lo, hi) of each of `sides` equal
    blocks starting at sample `offset`, and the worst-block RMS angular
    deviation of the core samples from their block mean."""
    n = samples.shape[0]
    blocks = np.roll(samples, -offset, axis=0).reshape(sides, n // sides, 3)
    core = blocks[:, lo:hi]
    means = core.mean(axis=1)
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    dots = np.clip(np.einsum("bls,bs->bl", core, means), -1.0, 1.0)
    rms = np.sqrt((np.arccos(dots) ** 2).mean(axis=1))
    return means, float(rms.max())


def _adjacent_turns(means: np.ndarray) -> np.ndarray:
    """Cyclic angles between consecutive unit block means."""
    dots = np.clip((means * np.roll(means, -1, axis=0)).sum(axis=1), -1.0, 1.0)
    return np.arccos(dots)


def measure_plateaus(field: TangentField, expected_sides: int) -> PlateauReport:
    """Average the central half of each of expected_sides equal blocks
    (aligned with s = 0) and report the cyclic adjacent angles."""
    n = field.grid_points
    if expected_sides < 1 or n % expected_sides != 0:
        raise GridNotDivisible(f"{n} grid points not divisible into {expected_sides} blocks")
    lo, hi = _trim_bounds(n // expected_sides)
    means, _ = _block_stats(field.samples, expected_sides, 0, lo, hi)
    angles = _adjacent_turns(means)
    return PlateauReport(
        expected_sides=expected_sides,
        plateau_means=means,
        adjacent_angles=angles,
        angle_median=float(np.median(angles)),
        angle_spread=float(angles.max() - angles.min()),
    )


def detect_sides(field: TangentField) -> int:
    """Smallest block count (a divisor of the grid size, >= 2) on which the
    field is piecewise constant within 0.2 radians AND turns at every
    block boundary.

    The turning requirement (min adjacent angle >= max(0.1, 2 * quality))
    rejects partitions that merely subdivide true plateaus, and the block
    floor of 32 cells (at most n // 32 blocks) keeps block means
    from tracking sub-plateau oscillation, which would otherwise qualify
    trivially once blocks are small enough.  Both the s = 0 aligned
    partition and the half-block-shifted one are tried, because for some
    rational times the corners sit at half-block offsets.  Returns 0 if
    no candidate qualifies.
    """
    n = field.grid_points
    for sides in range(2, n // _MIN_BLOCK_CELLS + 1):
        if n % sides:
            continue
        block = n // sides
        lo, hi = _trim_bounds(block)
        means, quality = min(
            (_block_stats(field.samples, sides, offset, lo, hi)
             for offset in (0, block // 2)),
            key=lambda stats: stats[1],
        )
        if quality > _QUALITY_THRESHOLD:
            continue
        if float(_adjacent_turns(means).min()) >= max(0.1, 2.0 * quality):
            return sides
    return 0


def reconstruct_curve(field: TangentField) -> CurveSample:
    """Cumulative trapezoidal integration of the tangent from the origin.

    Returns n + 1 positions (the last one closes the period; for a field
    with zero mean it coincides with the first up to roundoff).
    mean_height averages z over the n distinct points.
    """
    samples = field.samples
    ds = 2.0 * math.pi / field.grid_points
    steps = 0.5 * ds * (samples + np.roll(samples, -1, axis=0))
    positions = np.vstack([np.zeros((1, 3)), np.cumsum(steps, axis=0)])
    return CurveSample(
        positions=positions,
        mean_height=float(positions[:-1, 2].mean()),
    )


def vertical_drift_rate(field: TangentField) -> float:
    """Instantaneous vertical velocity of the curve's center of mass,
    the mean z component of T x T_s (first central difference).

    Averaging the pointwise velocity T x T_ss telescopes to zero on a
    periodic grid; integrating by parts once leaves mean(T x T_s), which
    is the quantity that survives.  The reconstructed curve is pinned at
    the origin, so the uniform translation of the true curve is
    invisible in positions; this rate is the measurable form of it.
    """
    samples = field.samples
    ds = 2.0 * math.pi / field.grid_points
    first = (np.roll(samples, -1, axis=0) - np.roll(samples, 1, axis=0)) / (2.0 * ds)
    return float(np.cross(samples, first)[:, 2].mean())


def analyze_polygon(field: TangentField, config: SimulationConfig) -> PolygonAngleReport:
    """Plateau statistics of an evolved field against the predicted count
    and inter-side angle for the config's rational time."""
    sides = config.expected_sides
    report = measure_plateaus(field, sides)
    predicted = inter_side_angle(config.M, config.q)
    return PolygonAngleReport(
        sides=sides,
        detected_sides=detect_sides(field),
        angle_median=report.angle_median,
        angle_spread=report.angle_spread,
        predicted_rho=predicted,
        relative_error=abs(report.angle_median - predicted) / predicted,
    )


def verify_polygon_angle(config: SimulationConfig) -> PolygonAngleReport:
    """Evolve the polygon datum to its rational time and compare the
    measured inter-side angle with the predicted one."""
    field = initial_tangent(config.M, config.grid_points)
    evolved = evolve(field, config.rational_time, config)
    return analyze_polygon(evolved, config)
