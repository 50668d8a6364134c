"""trajrot: rotation numbers, Gauss linking integrals and rotation bounds
for trajectories of Lipschitz vector fields.

Everything is built on immutable time-stamped polylines; all operations
are pure functions of their inputs (stochastic ones are deterministic
given a seed), so concurrent use needs no synchronization.
"""

from .bounds import (BoundReport, LOG_SINK_REFERENCE_C, THEOREM_IDS,
                     check_any_point_bound, check_invariant_subspace_bound,
                     check_log_sink_bound, check_log_sink_shells,
                     check_pair_bound, check_pair_bound_refined,
                     check_stationary_point_bound, lipschitz_for,
                     pair_bound_fallback_identity)
from .crofton import (CroftonConstants, CroftonEstimate, EquatorWitness,
                      crofton_constants, crofton_length_estimate,
                      find_circle_witness, find_equator_witness,
                      find_euclidean_witness, haar_orthogonal)
from .curves import (AffineSubspace, Curve, RotationResult, SphericalCurve,
                     concat, curve_from_csv, curve_length, curve_to_csv,
                     project_to_complement, resample, reverse, slice_time,
                     spherical_blowup, transform, translate)
from .errors import (CodimensionError, CurvesTooClose, DimensionMismatch,
                     DistanceTooSmall, EigenvalueSignError, NonTransversal,
                     NotClosed, NotInvariant, NotPlanar, NotStationary,
                     NumericalError, PreconditionError, PreconditionLength,
                     QuadratureInconclusive, SampleBudgetExceeded,
                     StepUnderflow, TrajrotError, WitnessNotFound)
from .fields import (Ball, FieldSpec, LipschitzEstimate, affine, constant,
                     enclosing_ball, estimate_lipschitz, eval_field,
                     field_values, linear, negated, parse_field_spec,
                     spiral2d, twist3d, twist_invariant_curve, twist_profile)
from .flow import IntegratorConfig, integrate_trajectory
from .gausslink import (LinkingResult, gauss_rotation_pair,
                        line_rotation_crosscheck, linking_coefficient,
                        topological_linking_planar, truncated_line_curve)
from .rotation import (absolute_rotation_point, rotation_around_subspace,
                       signed_winding_plane)

__version__ = "0.1.0"
