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
discrete scheme all commute with two symmetries.  One is "shift by
m = n/M samples and rotate by R = 2*pi/M about z": T[j + m] = R T[j].
The other is the reflection T[n - 1 - j] = R_a T[j], R_a the rotation
by pi about the horizontal axis at angle -pi/M; together they give
T[m - 1 - j] = R_b T[j] with R_b = diag(1, -1, -1).  evolve checks both
on its input (max abs deviation <= 1e-12 each).  With both and m even,
it steps the first h = m/2 samples; with the rotation only (or m odd)
the first m; with neither all n, with R = I.  The three are one kernel.
A Workspace is built from that domain, (n, copies, reflected), and owns
it: one symmetry map says, for every sample k of the full grid, which
stepped sample and which 3x3 matrix give T[k], and the Workspace reads
its ghost samples from that map, taken mod n, and unfolds the full field
through it (Workspace.unfold).  There are four ghost samples past each
end of the domain (four = the RK4 stages: each stage reads one sample
further out), so a domain of fewer cells than that wraps as often as it
needs to.  rk4_step, the one stepping entry point, takes the Workspace
as a required argument.  It fills the ghost columns once per step, from
the state; the stage inputs have the state's symmetry, so every stage
computes over the whole buffer, and the columns still right shrink by
one per end per stage, to exactly the stepped samples after the fourth.

rk4_step runs the four RK4 stages as one stage body in a loop over a
four-row stage table (see Workspace).  Its dots sum the stages in
another order than a term-by-term RK4 update, so the two agree to
1.6e-14 (max abs) after the pentagon's 19,557 steps, not bit for bit.
evolve renormalizes inline and records the step count and the largest
|norm - 1| before renormalization.  It writes each step's norms into a
row of the Workspace's ring and reduces them once per block of steps,
when the ring is full and after the last step: one min and one max of
the block feed both the blow-up guard and that record.

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
# The step loop calls numpy's C routines with no Python frame between,
# which at these sizes matters as much as the arithmetic:
# - ufuncs through module globals bound once: numpy defines a module
#   __getattr__, so CPython never specializes a load of np.<name>;
# - each ufunc's output by position: an out= keyword is parsed anew on
#   every call;
# - dot as a method bound once to its left operand (see Workspace), and
#   buffer copies as subscript assignment: np.dot and np.copyto are
#   array-function dispatchers, each call a Python frame in front of the
#   C routine that ndarray.dot and x[...] = y reach directly.
# copyto stays for copies of caller-owned arrays, for its casting check.
from numpy import add, copyto, divide, maximum, minimum, multiply, sqrt

from .arith import admissible_count
from .errors import BlowUp, GridNotDivisible, NotCoprime, RangeError
from .rotor import inter_side_angle

__all__ = [
    "DEFAULT_GRID_MULTIPLIER",
    "DEFAULT_DT_FACTOR",
    "MAX_STEPS",
    "SimulationConfig",
    "TangentField",
    "PlateauReport",
    "CurveSample",
    "PolygonAngleReport",
    "initial_tangent",
    "Workspace",
    "rk4_step",
    "evolve",
    "rms_distance",
    "measure_plateaus",
    "detect_sides",
    "reconstruct_curve",
    "analyze_polygon",
    "verify_polygon_angle",
]

DEFAULT_GRID_MULTIPLIER = 256
DEFAULT_DT_FACTOR = 0.4
# The most RK4 steps one evolve call takes: over 1000 times the 78,227
# of the largest run in the tests, scripts and benchmark, and about 32
# minutes at the pentagon's 19.3 us per step (grid 1920; perfbench's
# pentagon_evolve wall_s at its reference speed over 19,557 steps).
MAX_STEPS = 10**8

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
    A config whose rational_time is more than MAX_STEPS steps of dt from
    t = 0 raises evolve's RangeError when it is made, so a run beyond the
    cap is refused before its grid is allocated.
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
        _full_steps(self.rational_time, self.rational_time, self.dt)

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
        return self.M * admissible_count(self.q)


@dataclass(frozen=True)
class TangentField:
    """Unit tangent samples on the uniform periodic grid s_j = 2*pi*j/n, at
    a finite time."""

    time: float
    samples: np.ndarray  # shape (n, 3)
    # of the evolve call that made the field: RK4 steps taken, and the
    # largest |norm - 1| of a sample before renormalization
    steps: int = 0
    max_norm_deviation: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time}")
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
    """The plateau verdict of one evolved field.  Every field is a JSON
    scalar and a key of the simulate summary, in this order
    (dataclasses.asdict), so a field added here reaches the summary."""

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


# One RK4 stage reads one sample past each end of the region where its
# input is right, so the four stages of a step need four ghost columns
# per end, filled once from the state.
_HALO = 4
# The ring of norm rows that evolve's blow-up guard reduces once per
# block: at most this many rows and, when a row fits, this many floats.
_RING_ROWS = 64
_RING_FLOATS = 2**15


class Workspace:
    """The stepped domain of a grid of n samples and the buffers for
    stepping it; with them a warm rk4_step call creates no arrays.

    The domain is (copies, reflected) as _symmetry finds it: the first
    cells = m = n/copies samples, or m/2 when reflected, seen as the
    view `cells`.  One symmetry map (see _symmetry_map), taken mod n,
    gives the _HALO ghost samples past each end and the full field that
    `unfold` returns.  copies must be at least 1 and divide n >= 1, and
    m must be even when reflected; anything else raises ValueError.

    Each buffer is a structure of arrays, one row per vector component
    and cells + 2 * _HALO columns: the samples sit in the middle, with
    _HALO ghost columns on each side.  rk4_step fills the state's ghost
    columns once per step; every stage then runs over whole buffers,
    which are contiguous, so each operation is one flat numpy loop.  A
    stage's result is right wherever its input is right one column
    further out on both sides, so the right region loses one column per
    end per stage, and after the fourth it is exactly the samples.  What
    lands outside it is finite and never read by a sample.

    T x P is A - B with A = (T_y, T_z, T_x) * (P_z, P_x, P_y) and
    B = (T_z, T_x, T_y) * (P_y, P_z, P_x).  A stage's input T sits in
    `stage` and its P = T+ + T- in `pair`; rows 3 and 4 of both repeat
    rows 0 and 1, so that A and B are each one flat product of two row
    slices.  `stack` holds [state, A1, B1, ..., A4, B4]: the solution,
    handed to rk4_step as the (cells, 3) view `cells`, and the product
    pair of each stage, whose unscaled slope T x (T+ + T-) is
    k_i = A_i - B_i.

    The four stages are one body, run in a loop over `_stages`, whose
    i-th row (i = 1..4) is (A_i, B_i, weights.dot, stack[:2i + 1], out):
    repeat rows 0 and 1 of `stage`, form `pair`, write A_i and B_i, and
    dot the weights, a view of the i-th row of one (4, 9) table of the
    RK4 coefficients with 1/ds^2 and the sign of each product folded in,
    with the block stack[:2i + 1].  _set_weights rewrites that table in
    place, so the dots bound to its rows see every new step size.  The
    dot is the next stage's input in `stage` for i = 1..3, and for i = 4
    the combined step in `update`, seen as the (cells, 3) view `stepped`.
    A change to the stencil or the tableau is one change to that body or
    that table.

    `squares`, `sums` and `ring` serve the renormalization in evolve,
    which copies into `stepped` any other array rk4_step returns.
    `squares` holds the squares of `update`, one flat product over its
    three whole rows; `sums` their column sums (x^2 + y^2) + z^2, two flat
    additions over whole rows, ghost columns included (they are finite
    and never read).  The sqrt of the sample columns of `sums` goes into
    the next row of `ring`, a (rows, cells) array, and the samples are
    divided by that row.  rows is _RING_ROWS, or fewer when the ring
    would pass _RING_FLOATS floats, and at least 1: a block of that many
    steps then shares one min and one max for the blow-up guard.

    A warm step reaches every array through the views of `_kernel` and
    `_stages`, and runs no Python frame but rk4_step's own: each ufunc
    through a module-level name bound once and with its output by
    position, each dot as a method bound to its left operand here, and
    each buffer copy as a subscript assignment (see the import).
    """

    def __init__(self, n: int, copies: int, reflected: bool) -> None:
        # a reflected odd block would map a sample to source -1, which
        # rk4_step's gather (mode="clip") would read as sample 0
        if not (n >= 1 and copies >= 1 and n % copies == 0
                and not (reflected and n // copies % 2)):
            raise ValueError(
                f"{copies} copies{' with reflection' if reflected else ''} "
                f"do not tile a grid of {n} samples"
            )
        cells = n // copies // (2 if reflected else 1)
        self._map = _symmetry_map(n, cells, copies, reflected)
        # the ghost samples' offsets from sample 0, _HALO past each end
        offsets = np.concatenate([np.arange(-_HALO, 0), np.arange(cells, cells + _HALO)])
        sources, matrices = (part[offsets % n] for part in self._map)
        ghosts = 2 * _HALO
        width = cells + ghosts
        self.stack = np.zeros((9, 3, width))
        self.stage = np.zeros((5, width))
        self.pair = np.zeros((5, width))  # T+ + T- at the columns of stage
        self.update = np.zeros((3, width))
        self.squares = np.zeros((3, width))
        self.sums = np.zeros(width)
        self.ring = np.zeros((max(1, min(_RING_ROWS, _RING_FLOATS // cells)), cells))
        samples = slice(_HALO, _HALO + cells)
        self.cells = self.stack[0, :, samples].T
        self.stepped = self.update[:, samples].T
        # the weights of the four stage dots, the state's first; zeros
        # pad each row past its block
        self._weights = np.zeros((4, 9))
        self._weights[:, 0] = 1.0
        self._step = (math.nan, math.nan)  # (dt, ds) of the weights above
        # the halo as flat indices into stack[0] and one block-diagonal
        # matrix: gathering the 3 x 2*_HALO source components, one dot
        # with it and one scatter fill the state's ghost columns
        rows = width * np.arange(3)[:, None]
        spread = np.zeros((3, ghosts, 3, ghosts))
        for i, matrix in enumerate(matrices):
            spread[:, i, :, i] = matrix
        gathered, ghost_values = np.zeros(3 * ghosts), np.zeros(3 * ghosts)
        stage, pair = self.stage.ravel(), self.pair.ravel()
        stage_input, stack = stage[:3 * width], self.stack.reshape(9, -1)
        # everything rk4_step touches, as views built once: at these
        # sizes an attribute lookup or a slice costs about as much as a
        # ufunc call
        self._kernel = (
            stack[0],
            (rows + sources + _HALO).ravel(),
            gathered,
            spread.reshape(3 * ghosts, 3 * ghosts).dot,
            ghost_values,
            (rows + offsets + _HALO).ravel(),
            stage_input, self.stage[3:], self.stage[:2],
            stage[2:], stage[:-2], pair[1:-1],
            # (T_y, T_z, T_x), (P_z, P_x, P_y), (T_z, T_x, T_y), (P_y, P_z, P_x)
            stage[width:4 * width], pair[2 * width:],
            stage[2 * width:], pair[width:4 * width],
        )
        outputs = (stage_input,) * 3 + (self.update.reshape(-1),)
        self._stages = tuple(
            (stack[2 * i + 1], stack[2 * i + 2], self._weights[i, :2 * i + 3].dot,
             stack[:2 * i + 3], out)
            for i, out in enumerate(outputs)
        )

    def unfold(self) -> np.ndarray:
        """The full (n, 3) field that `cells` stands for, a new array."""
        sources, matrices = self._map
        return np.matmul(matrices, self.cells[sources, :, None])[:, :, 0]

    def _set_weights(self, dt: float, ds: float) -> None:
        """Stage weights of a step of dt, with 1/ds^2 folded in."""
        h = dt / (ds * ds)
        half, third, sixth = 0.5 * h, h / 3.0, h / 6.0
        self._weights[:, 1:] = (
            (half, -half, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, half, -half, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, h, -h, 0.0, 0.0),
            (sixth, -sixth, third, -third, third, -third, sixth, -sixth),
        )
        self._step = (dt, ds)


def rk4_step(
    samples: np.ndarray,
    dt: float,
    ds: float,
    work: Workspace,
) -> np.ndarray:
    """One classical fourth-order step of the (cells, 3) samples, without
    renormalization, on the grid continued by work's symmetry map.

    samples are copied into work.cells first unless they already are
    work.cells.  Returns the view work.stepped, valid until the next
    call; work.cells still holds the samples."""
    if samples is not work.cells:
        copyto(work.cells, samples)
    dt_now, ds_now = work._step
    if dt != dt_now or ds != ds_now:
        work._set_weights(dt, ds)
    (state, sources, gathered, spread_dot, ghost_values, ghosts, stage,
     rows_34, rows_01, upper, lower, pair, t_yzx, p_zxy, t_zxy, p_yzx) = work._kernel
    # the methods: np.take and np.put are Python wrappers around them
    state.take(sources, None, gathered, "clip")
    spread_dot(gathered, ghost_values)
    state.put(ghosts, ghost_values, "clip")
    stage[...] = state
    for a, b, weights_dot, block, out in work._stages:
        rows_34[...] = rows_01
        add(upper, lower, pair)
        multiply(t_yzx, p_zxy, a)
        multiply(t_zxy, p_yzx, b)
        weights_dot(block, out)
    return work.stepped


def _z_rotation(k: int, copies: int) -> np.ndarray:
    """Rotation by 2*pi*k/copies about z; exactly I when copies divides k."""
    if k % copies == 0:
        return np.eye(3)
    angle = 2.0 * math.pi * k / copies
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _half_turn(angle: float) -> np.ndarray:
    """Rotation by pi about the horizontal axis at `angle`; exactly
    diag(1, -1, -1) at angle 0."""
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    return np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, -1.0]])


def _symmetry(samples: np.ndarray, M: int) -> tuple[int, bool]:
    """(copies, reflected) of the field, each symmetry holding to a max
    abs deviation of 1e-12: copies is M if T[j + m] = R T[j], with
    m = n/M and R the rotation by 2*pi/M about z, and otherwise 1;
    reflected says that also m is even and T[n - 1 - j] = R_a T[j]."""
    n = samples.shape[0]
    if n % M:
        return 1, False
    m = n // M
    rotated = samples[:-m] @ _z_rotation(1, M).T
    if float(np.abs(samples[m:] - rotated).max()) > 1e-12:
        return 1, False
    if m % 2:
        return M, False
    mirrored = samples @ _half_turn(-math.pi / M).T
    return M, float(np.abs(samples[::-1] - mirrored).max()) <= 1e-12


def _symmetry_map(
    n: int, cells: int, copies: int, reflected: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(sources, matrices) with T[k] = matrices[k] @ T[sources[k]] for
    every sample k of the full grid of n, each source one of the first
    `cells`: the k-th block of m = n/copies samples is R^k applied to the
    first m, and these are, when reflected, the first cells = m/2 followed
    by their mirror image T[m - 1 - j] = R_b T[j]."""
    block, offset = np.divmod(np.arange(n), n // copies)
    matrices = np.array([_z_rotation(k, copies) for k in range(copies)])[block]
    if not reflected:
        return offset, matrices
    mirror = offset >= cells
    matrices[mirror] = matrices[mirror] @ _half_turn(0.0)
    return np.where(mirror, 2 * cells - 1 - offset, offset), matrices


def _guard_block(
    block: np.ndarray, steps: int, lowest: float, highest: float,
    time: float, dt: float,
) -> tuple[float, float]:
    """The blow-up guard over `block`, the norm rows of the last
    len(block) of the `steps` steps taken, one row per step: (lowest,
    highest) folded with the block's min and max, or BlowUp at the time
    of the first of those steps with a norm outside [0.5, 2] or not
    finite."""
    low, high = minimum.reduce(block, axis=None), maximum.reduce(block, axis=None)
    # negated so that a NaN norm fails the test as well
    if not (low >= 0.5 and high <= 2.0):
        bad = ~((block >= 0.5) & (block <= 2.0)).all(axis=1)
        # evolve skips no step but the last, shortened one (or all), so
        # the step taken k-th, from 0, starts at time + k * dt
        step = steps - len(block) + int(bad.argmax())
        raise BlowUp(
            f"sample norm left [0.5, 2] at t ~ {time + step * dt:.6g}; "
            "reduce dt_factor"
        )
    return min(lowest, low), max(highest, high)


def _full_steps(remaining: float, t_target: float, dt: float) -> int:
    """The whole steps of dt in the `remaining` time to t_target; raises
    RangeError when they are more than MAX_STEPS."""
    n_full = int(remaining // dt)
    if n_full > MAX_STEPS:
        raise RangeError(
            f"t_target={t_target:.6g} needs {remaining / dt:.3g} steps of "
            f"dt={dt:.6g}, more than MAX_STEPS={MAX_STEPS}"
        )
    return n_full


def evolve(field: TangentField, t_target: float, config: SimulationConfig) -> TangentField:
    """Advance to t_target with dt = dt_factor * ds^2, renormalizing every
    sample after every step.  Only a fundamental domain of n/(2M) or n/M
    samples is stepped when the field has the symmetries (see the module
    docstring).  Raises RangeError for a non-finite t_target, one before
    the field's time, or one more than MAX_STEPS steps away (checked
    before the first step), and BlowUp if any pre-normalization norm leaves
    [0.5, 2] or is not finite: checked once per block of the Workspace's
    ring rows, so a run stops within one block, with the time of the
    first bad step.  The result records the steps taken and the largest
    |norm - 1| before renormalization."""
    if not math.isfinite(t_target):
        raise RangeError(f"t_target must be finite, got {t_target}")
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
    n_full = _full_steps(remaining, t_target, dt)
    tail = remaining - n_full * dt

    work = Workspace(field.grid_points, *_symmetry(field.samples, config.M))
    state, stepped = work.cells, work.stepped
    # flat over whole rows, ghost columns included; from the sqrt on,
    # over the sample columns alone
    update, squares = work.update.reshape(-1), work.squares.reshape(-1)
    (x2, y2, z2), sums = work.squares, work.sums
    sample_sums = sums[_HALO:_HALO + len(state)]
    # the ring's rows as a tuple, so that a step builds no view
    ring = work.ring
    norm_rows = tuple(ring)
    rows = len(norm_rows)
    stepped_rows, state_rows = stepped.T, state.T
    state[...] = field.samples[:len(state)]
    negligible = 1e-16 * max(1.0, t_target)
    steps, filled, lowest, highest = 0, 0, 1.0, 1.0
    # a blowing-up step overflows to inf and NaN, which the guard judges;
    # numpy's warnings about them would only reach stderr
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(n_full + 1):
            h = dt if step < n_full else tail
            if h <= negligible:
                continue
            result = rk4_step(state, h, ds, work)
            if result is not stepped:
                copyto(stepped, result)
            multiply(update, update, squares)
            add(x2, y2, sums)
            add(sums, z2, sums)
            norms = norm_rows[filled]
            sqrt(sample_sums, norms)
            divide(stepped_rows, norms, state_rows)
            steps += 1
            filled += 1
            if filled == rows:
                lowest, highest = _guard_block(ring, steps, lowest, highest, field.time, dt)
                filled = 0
        if filled:
            lowest, highest = _guard_block(ring[:filled], steps, lowest, highest, field.time, dt)
    if not steps:
        return TangentField(time=t_target, samples=field.samples.copy())
    return TangentField(
        time=t_target,
        samples=work.unfold(),
        steps=steps,
        max_norm_deviation=float(max(1.0 - lowest, highest - 1.0)),
    )


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


def _median(values: np.ndarray) -> float:
    """The median of a nonempty 1-d array, equal to np.median bit for
    bit: the middle sorted value, or the mean of the two middle ones for
    an even count, and NaN when any value is NaN.  np.median itself
    imports numpy.ma on its first call in a process, a cost every
    one-shot simulate run would pay."""
    ordered = np.sort(values)  # NaN sorts last
    if math.isnan(ordered[-1]):
        return math.nan
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2)


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
        angle_median=_median(angles),
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
