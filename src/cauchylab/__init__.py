"""Desk-scale numerics for the Cauchy integral on Lipschitz graph curves:
principal-value quadrature, oscillation diagnostics, two-bump atomic
decompositions, and the iterative weak factorization machinery."""

from types import ModuleType as _ModuleType

from .atoms import (AtomicDecomposition, TwoBump, containment_index, decompose_two_bump,
                    decomposition_csv, make_test_atom, make_two_bump_input,
                    reconstruction_error, two_bump_host_grid, two_bump_norm_bound)
from .cauchy import (KernelBoundsReport, apply_cauchy, apply_cauchy_adjoint,
                     apply_related_cauchy, assemble_cauchy_matrix,
                     assemble_related_matrix, kernel_bounds_check, related_kernel_values,
                     weight_values)
from .commutator import (CommutatorSpec, apply_commutator, commutator_matrix,
                         commutator_norm_estimate, compactness_profile)
from .curve import (AccretiveWeight, LipschitzCurve, eval_A, eval_b, eval_slope,
                    load_curve_file, make_curve, write_curve_file)
from .errors import (CauchylabError, CurveFormatError, GridTooNarrowError,
                     NumericalCheckError, PreconditionError)
from .factorization import (FactorPair, FactorStage, Residual, WeakFactorization,
                            approx_factor_atom, denominator_floor, estimate_residual_h1b,
                            h1_factor_from_h1b, pi_b, pi_classic, residual,
                            select_big_m, single_two_bump_initial, weak_factorize)
from .grid import (GridFunction, Interval, UniformGrid, csv_text, indicator,
                   integrate, lp_norm, pair)
from .spaces import (AtomCertificate, OscillationReport, bmo_norm, check_atom,
                     h1b_norm_upper, vmo_profile)

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
