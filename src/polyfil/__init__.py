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
from .arith import (
    ParityInfo,
    admissible,
    admissible_indices,
    alternating_products,
    alternating_square_sum,
    alternating_sum,
    cyclic_shift,
    enumerate_index_vectors,
    mod_inverse,
    parity_info,
)
from .gauss import (
    GaussSumValue,
    QuadraticPhase,
    ThetaSequence,
    gauss_sum,
    max_phase_defect,
    quadratic_phase,
    theta_sequence,
)
from .rotor import (
    AxisAngle,
    RotationCertificate,
    Spinor,
    TraceIdentityResult,
    axis_angle_of,
    certify_rotation_angle,
    inter_side_angle,
    rotation_angle,
    rotation_from_axis_angle,
    rotation_product,
    spinor_from_axis_angle,
    spinor_to_rotation,
    trace_identity_eval,
)
from .sums import SumReport, quad_exp_sum, sum_report, trig_sum, verify_sum_identities
from .vfe import (
    CurveSample,
    PlateauReport,
    PolygonAngleReport,
    SimulationConfig,
    TangentField,
    analyze_polygon,
    detect_sides,
    evolve,
    initial_tangent,
    measure_plateaus,
    reconstruct_curve,
    rms_distance,
    verify_polygon_angle,
    vertical_drift_rate,
)
