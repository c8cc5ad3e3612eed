"""Verification toolkit for regular polygonal filament evolution.

Evaluates generalized quadratic Gauss sums and their arguments, checks
the vanishing of the associated alternating cosine and quadratic
exponential sums, certifies that the ordered corner-rotation product has
angle 2*pi/M exactly at the predicted inter-side angle, and cross-checks
that angle against a direct simulation of the tangent flow
T_t = T x T_ss from polygonal initial data.
"""

__version__ = "0.1.0"

from . import arith, cli, errors, gauss, rotor, sums, vfe
