"""Generalized quadratic Gauss sums, their arguments, and the quadratic
phase normal form.

G(-p, n, q) = sum_{k=0}^{q-1} exp(2*pi*i*(-p*k^2 + n*k)/q), with p and q
coprime.  For fixed (p, q) all q sums are one discrete Fourier transform:
G(-p, n, q) = q * ifft(chirp)[n] with chirp_k = exp(-2*pi*i*p*k^2/q).
The chirp is read from the table of q-th roots of unity at the exponents
(-p*k^2) mod q, reduced in exact integer arithmetic, so no angle grows
with k; the only rounding beyond the root table is the FFT's.  Every
coprime pair with q <= 60 agrees with compensated direct summation to
1.7e-14 (tests/test_gauss_oracle.py keeps that summation, and the
closed form for odd q, as references).

A table has one shape: it stacks P values of p at one q, `p` is a
tuple of P ints, and every array has a leading p axis, (P, q) for the
table and (P,) for its phase fit's a and b.  theta_sequences(ps, q)
builds the table of all given p from one inverse FFT along the last
axis and classifies it in one vectorised pass; theta_sequence(p, q) is
its P = 1 call, not a second shape.  Each row of a stacked table equals
the one-row table of its p bit for bit (tests/test_batch_oracle.py), so
the verify suites build one table per q for every p at once.
ThetaSequence.entry(n) builds one GaussSumValue of a one-row table on
demand, for gauss_sum and the CLI, and `entries` is the tuple of them.

A table owns its arguments, its admissible set and its phase fit, each
found on first read and kept with the table, so every check reads the
ones of its own table, and a table that no check reads never finds
them.  ThetaSequence.arguments is the (P, q) array of every argument,
which only entry() reads.  ThetaSequence.admissible_arguments() holds
the admissible indices and their arguments, taken by atan2 at those
columns alone: the vanishing check computes no argument, and the
others none of the inadmissible half of the columns at even q.  With
atan2 over every entry, the tables of q <= 60 took 3.3 ms for the
vanishing check and 4.7 ms with their admissible arguments, against
2.5 and 3.9 ms now (in-process best of 30, 2-vCPU VM; BENCH_34.json
has the end-to-end runs).  ThetaSequence.phase is the QuadraticPhase of
its rows, fitted at the smallest admissible index.  quadratic_phase(p,
q) is theta_sequence(p, q).phase.

Two rules of the proof have one owner each, which gauss, sums and rotor
all read.  ThetaSequence.admissible_arguments decides which indices
carry an argument (4 does not divide 2n + 2 - q) and is the only place
that raises UndefinedTheta, for the fit's reference as for every other
admissible index.  QuadraticPhase.residues is the only place that
reduces a*n^2 modulo the phase denominator (2 - delta)^2 * q.

Non-vanishing sums have modulus sqrt(q) for odd q and sqrt(2q) for even q,
while the vanishing ones are exactly the indices n with 4 | 2n + 2 - q.
That gap of many orders of magnitude makes the relative threshold below a
safe classifier at desk scale (q up to a few thousand).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .arith import admissible_mask, mod_inverse
from .errors import NotCoprime, UndefinedTheta

__all__ = [
    "VANISHING_RELATIVE_TOL",
    "GaussSumValue",
    "ThetaSequence",
    "QuadraticPhase",
    "gauss_sum",
    "theta_sequence",
    "theta_sequences",
    "quadratic_phase",
    "max_phase_defect",
    "max_phase_defects",
    "unit_roots",
]

VANISHING_RELATIVE_TOL = 1e-9


@lru_cache(maxsize=512)
def unit_roots(q: int) -> tuple[complex, ...]:
    """The q-th roots of unity exp(2*pi*i*m/q), m = 0..q-1."""
    return tuple(
        complex(math.cos(2.0 * math.pi * m / q), math.sin(2.0 * math.pi * m / q))
        for m in range(q)
    )


@dataclass(frozen=True)
class GaussSumValue:
    """One evaluated sum: complex value, modulus, principal argument in
    (-pi, pi] (None when the sum vanishes), and the vanishing flag."""

    value: complex
    modulus: float
    argument: float | None
    vanishing: bool


@dataclass(frozen=True, eq=False)
class ThetaSequence:
    """All q sums for each p of the tuple `p` at one q, as read-only
    (P, q) arrays, entry [i, n] for (p[i], q, n): the complex `values`,
    their `moduli` and the boolean `vanishing` flags.  Compared by
    identity (eq=False), since arrays have no single-bool ==."""

    p: tuple[int, ...]
    q: int
    values: np.ndarray
    moduli: np.ndarray
    vanishing: np.ndarray

    def __post_init__(self) -> None:
        for name in ("values", "moduli", "vanishing"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @cached_property
    def arguments(self) -> np.ndarray:
        """The principal arguments in (-pi, pi] of every entry, NaN where
        the sum vanishes: a read-only (P, q) array computed on first read
        and kept with the table.  entry() reads it; the checks read
        admissible_arguments(), which computes its own columns alone."""
        arguments = np.where(self.vanishing, np.nan, _argument(self.values))
        arguments.flags.writeable = False
        return arguments

    def admissible_arguments(self) -> tuple[np.ndarray, np.ndarray]:
        """The admissible indices n (4 does not divide 2n + 2 - q), in
        ascending order, and their (P, N) arguments, computed from those
        columns of `values` alone, as read-only arrays found on the first
        call and kept with the table.  They equal `arguments` at those
        columns bit for bit (tests/test_batch_oracle.py).  Raises
        UndefinedTheta when one of them is flagged vanishing in any row,
        since it then has no argument."""
        return self._admissible

    @cached_property
    def _admissible(self) -> tuple[np.ndarray, np.ndarray]:
        n = np.flatnonzero(admissible_mask(self.q))
        undefined = self.vanishing[:, n]
        if undefined.any():
            row, column = np.argwhere(undefined)[0]
            raise UndefinedTheta(f"G(-{self.p[row]},{n[column]},{self.q}) vanishes; no argument")
        arguments = _argument(self.values[:, n])
        n.flags.writeable = arguments.flags.writeable = False
        return n, arguments

    def entry(self, n: int) -> GaussSumValue:
        """Index n of a one-row table as one GaussSumValue (argument None
        when it vanishes)."""
        if len(self.p) != 1:
            raise ValueError(f"entry() reads a one-row table, not one of {len(self.p)} rows")
        vanishing = bool(self.vanishing[0, n])
        return GaussSumValue(
            complex(self.values[0, n]), float(self.moduli[0, n]),
            None if vanishing else float(self.arguments[0, n]), vanishing,
        )

    @cached_property
    def phase(self) -> QuadraticPhase:
        """The phase fit of every row (see _fit_phase), computed on first
        read and kept with the table."""
        return _fit_phase(self)

    @property
    def entries(self) -> tuple[GaussSumValue, ...]:
        """entry(n) for every n of a one-row table, built when it is read;
        the checks in this package read the arrays instead."""
        return tuple(map(self.entry, range(self.q)))


@dataclass(frozen=True, eq=False)
class QuadraticPhase:
    """Normal form of the arguments: for every admissible n,

        theta_n  =  (2*pi*a/q) * (n / (2 - delta))^2  +  b   (mod 2*pi)

    with a in [0, q) coprime to q and b the argument of an n-independent
    reference sum.  delta is the parity of q; epsilon is None for odd q
    and, for even q, the common parity of the admissible indices, which
    is the smallest of them and the fit's reference.

    One fit per row of a table, read as that table's `phase` (the only
    route from a table to its fit): `p` is its tuple, `a` an int64 array
    and `b` a float array, each of shape (P,).  Compared by identity
    (eq=False), since arrays have no single-bool ==.
    """

    p: tuple[int, ...]
    q: int
    a: np.ndarray
    b: np.ndarray
    delta: int
    epsilon: int | None

    @property
    def denominator(self) -> int:
        """(2 - delta)^2 * q, the modulus of the quadratic part."""
        return (2 - self.delta) ** 2 * self.q

    def residues(self, n) -> np.ndarray:
        """(a * n^2) mod denominator for an array of indices, exact in
        int64: n^2 is reduced before the product with a < q.  The result
        has a leading p axis, (P,) + n.shape."""
        d = self.denominator
        n = np.asarray(n, dtype=np.int64)
        return np.multiply.outer(self.a, n * n % d) % d


def _principal(angle):
    """Fold the -pi edge of atan2's range [-pi, pi] onto +pi (elementwise)."""
    return np.where(angle <= -math.pi, angle + 2.0 * math.pi, angle)


def _argument(values: np.ndarray) -> np.ndarray:
    """The principal arguments in (-pi, pi] of an array of sums."""
    return _principal(np.arctan2(values.imag, values.real))


def _gauss_table(p: np.ndarray, q: int) -> np.ndarray:
    """G(-p, n, q) for each p of an int64 array (P,) and n = 0..q-1, as a
    (P, q) array: one inverse FFT of the chirps along the last axis."""
    k = np.arange(q, dtype=np.int64)
    residues = np.multiply.outer(-p % q, k * k % q) % q
    chirp = np.array(unit_roots(q))[residues]
    # np.fft is an attribute lookup on purpose: numpy loads it lazily,
    # so code paths that never build a table never import it.
    return q * np.fft.ifft(chirp, axis=-1)


def _require_coprime(p: int, q: int) -> None:
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} must be coprime")


def gauss_sum(p: int, q: int, n: int) -> GaussSumValue:
    """Evaluate G(-p, n, q), one entry of the (p, q) table."""
    _require_coprime(p, q)
    if not 0 <= n < q:
        raise ValueError(f"n must lie in [0, {q}), got {n}")
    return theta_sequence(p, q).entry(n)


def theta_sequence(p: int, q: int) -> ThetaSequence:
    """Evaluate all q sums for fixed (p, q): the one-row table
    theta_sequences([p], q)."""
    return theta_sequences([p], q)


def theta_sequences(ps, q: int) -> ThetaSequence:
    """The table of every p in ps at one q, from one inverse FFT; row i
    equals theta_sequence(ps[i], q).  p may exceed an int64, since only
    p mod q enters the arrays."""
    ps = tuple(int(p) for p in ps)
    for p in ps:
        _require_coprime(p, q)
    return _classify(ps, q, _gauss_table(np.array([p % q for p in ps], dtype=np.int64), q))


def _classify(ps: tuple[int, ...], q: int, values: np.ndarray) -> ThetaSequence:
    """Moduli and vanishing flags of a (P, q) table, each sum vanishing
    when its modulus is below VANISHING_RELATIVE_TOL * max(1, sqrt(q))."""
    moduli = np.abs(values)
    vanishing = moduli < VANISHING_RELATIVE_TOL * max(1.0, math.sqrt(q))
    return ThetaSequence(ps, q, values, moduli, vanishing)


def quadratic_phase(p: int, q: int) -> QuadraticPhase:
    """The quadratic phase fit of the (p, q) table (see _fit_phase)."""
    return theta_sequence(p, q).phase


def _fit_phase(table: ThetaSequence) -> QuadraticPhase:
    """Fit the quadratic phase model by completing the square, row by row,
    at the reference: the smallest admissible index, which is 0 for odd q
    and epsilon, the common parity of the admissible indices, for even q.

    Odd q:  a is the inverse of 4p, and b the argument of the n = 0 sum.
    Even q: a is the inverse of p; the reference is the n = epsilon sum
    carrying an extra phase -pi*epsilon*a/(2q).
    """
    q = table.q
    delta = q % 2
    ref = int(table.admissible_arguments()[0][0])
    a_rows, angles = [], []
    for p, value in zip(table.p, table.values[:, ref].tolist()):
        if delta == 1:
            a = mod_inverse(4 * p, q)
            ref_value = value
        else:
            a = mod_inverse(p, q)
            ref_value = value * cmath.exp(-1j * math.pi * ref * a / (2 * q))
        a_rows.append(a)
        angles.append(math.atan2(ref_value.imag, ref_value.real))
    return QuadraticPhase(p=table.p, q=q, a=np.array(a_rows, dtype=np.int64),
                          b=_principal(np.array(angles)), delta=delta,
                          epsilon=None if delta == 1 else ref)


def max_phase_defect(p: int, q: int) -> float:
    """Largest distance, over admissible n, from the model-vs-actual phase
    difference to the nearest multiple of 2*pi, for one (p, q): the
    one-row call of max_phase_defects."""
    return float(max_phase_defects(theta_sequence(p, q))[0])


def max_phase_defects(theta: ThetaSequence) -> np.ndarray:
    """The phase defect of every row of a table, shape (P,).  One table
    serves both the fit (theta.phase) and the comparison, read through
    its two owners: ThetaSequence.admissible_arguments and
    QuadraticPhase.residues."""
    phase = theta.phase
    n, arguments = theta.admissible_arguments()
    model = 2.0 * math.pi * phase.residues(n) / phase.denominator + phase.b[:, None]
    diff = (model - arguments) % (2.0 * math.pi)
    return np.minimum(diff, 2.0 * math.pi - diff).max(axis=-1, initial=0.0)
