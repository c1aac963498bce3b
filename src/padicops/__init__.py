"""Exact p-adic scalars, sparse operators on sequence space, and the
certified pipelines built on them: Mahler expansions, binomial
functional calculus, idempotent refinement and lifting, and the Willis
scale of finite matrices.
"""

from .calculus import (binomial_series, certify_normal_contraction,
                       functional_calculus, teichmuller_idempotent)
from .config import ExperimentConfig, load_config
from .errors import (CertificationFailed, DivisionByZero, NoConvergence,
                     NonIntegral, PadicError, ParseError, PrecisionExhausted,
                     PreconditionFailed, StructureError, Undecidable)
from .idempotents import (EquivalenceWitness, SplitResult, SumRingGenerators,
                          column_projection, finite_rank_reduce,
                          idempotent_equivalence, idempotent_lift,
                          idempotent_refine, idempotent_split, infinite_sum,
                          k0_trivialize, matrix_rank, refinement_polynomial,
                          sum_ring_generators)
from .io import (mahler_from_obj, mahler_to_obj, operator_from_json,
                 operator_from_obj, operator_to_obj, scalar_from_text,
                 scalar_to_text)
from .mahler import MahlerFunction, mahler_eval, mahler_expand, mahler_sup_norm
from .operators import (Adjoint, Diagonal, FiniteMatrix, Identity, IndexMap,
                        NormalForm, Operator, Product, ScalarMul, Sum,
                        is_compact, normalize, op_agree, op_apply, op_norm,
                        truncate, weighted_shift_matrix)
from .polynomials import IntPolynomial
from .scale import (ScaleValue, determinant, scale_minor_probe,
                    scale_transpose_check, willis_scale_finite)
from .scalars import (DEFAULT_PRECISION, Padic, ValuationBound,
                      binomial_padic, digit_sum, factorial_valuation,
                      norm_max, precision_of, teichmuller,
                      vandermonde_coefficients)
from .vectors import PadicVector, PairingValue, fractional_part, pairing
from .verify import CriterionResult, run_all

__all__ = [name for name in dir() if not name.startswith("_")]
