"""Exact partial zeta functions of affine varieties over finite fields."""

from .fields import Field, field, smallest_irreducible
from .polys import (MorphismSpec, PolyParseError, SparsePoly, VarietySpec,
                    base_field, parse_poly)
from .counting import BudgetExceededError, DEFAULT_BUDGET, partial_count
from .zeta import (AutoReconstructError, NoSolutionError, NonIntegerError,
                   RationalFunctionZ, ReconstructionError,
                   ReconstructionResult, RootFindingError, TruncatedSeries,
                   WeightReport, auto_reconstruct, degree_sweep,
                   pade_reconstruct, reconstruct_counts, series_from_counts,
                   weil_weight_check)
from .faltings import LemmaReport, lemma_check
from .graphs import (GraphEdge, GraphReport, GraphSystem, GraphVertex,
                     fibred_product_reduce, graph_count_direct,
                     reduction_check)
from .artin_schreier import (ASInstance, BoundReport, OracleMismatchError,
                             as_count_brute, as_count_trace, bound_check,
                             diagonal_smooth_check, fibred_sum,
                             singular_search)

__version__ = "0.1.0"
