"""Search, verify and bound shifted-product tuples with exact arithmetic.

A tuple has the degree-k shifted-product property for shift n when every
pairwise product plus n is a k-th power of a positive integer; a bipartite
pair asks the same of every cross product.  This package enumerates such
sets up to a height, certifies the gap principle that forces their rapid
growth, evaluates every explicit size bound exactly or to high precision,
runs the larger-sieve estimate, and exhausts the prime-field analogues.
"""

from .bounds import (BoundReport, ThueScanReport, bipartite_side_bound,
                     bound_reports, derive_cubic_threshold, evertse_constants,
                     large_element_exponents, table_constants, tail_term,
                     thue_scan, tuple_size_bound, tuple_size_bound_closed,
                     tuple_size_small_regime)
from .core import (BipartitePair, DiophantineTuple, GapCertificate,
                   GrowthReport, TupleConfig, VerifyReport,
                   check_gap_quadruple, check_superexponential_growth,
                   gap_lower_bound, growth_exponents, verify_bipartite,
                   verify_tuple)
from .errors import HypothesisError, InputError, InvariantViolation
from .exact import (compare_value_to_power, format_natural, format_rational,
                    integer_kth_root, is_perfect_kth_power, is_prime,
                    parse_natural, parse_rational, trial_factor)
from .ff import (CharacterSumResult, CliqueScanResult, FieldConfig,
                 FieldScanResult, char_sum, ff_scan_bipartite, ff_scan_clique,
                 ff_verify, power_classes, primitive_root)
from .search import (SearchBudget, SearchOutcome, brute_force_tuples,
                     candidates_for, kth_power_residues, search_bipartite,
                     search_tuples)
from .sieve import (PipelineResult, SieveEvaluation, euler_phi,
                    gallagher_bound, primes_in_class, primes_up_to,
                    sieve_pipeline)

__version__ = "0.1.0"

__all__ = [
    "BipartitePair", "BoundReport", "CharacterSumResult", "CliqueScanResult",
    "DiophantineTuple", "FieldConfig", "FieldScanResult",
    "GapCertificate", "GrowthReport", "HypothesisError", "InputError",
    "InvariantViolation", "PipelineResult", "SearchBudget", "SearchOutcome",
    "SieveEvaluation", "ThueScanReport", "TupleConfig", "VerifyReport",
    "bipartite_side_bound", "bound_reports", "brute_force_tuples",
    "candidates_for", "char_sum", "check_gap_quadruple",
    "check_superexponential_growth", "compare_value_to_power",
    "derive_cubic_threshold", "euler_phi", "evertse_constants",
    "ff_scan_bipartite", "ff_scan_clique", "ff_verify", "format_natural",
    "format_rational", "gallagher_bound", "gap_lower_bound",
    "growth_exponents", "integer_kth_root", "is_perfect_kth_power",
    "is_prime", "kth_power_residues", "large_element_exponents",
    "parse_natural", "parse_rational", "power_classes", "primes_in_class",
    "primes_up_to", "primitive_root", "search_bipartite", "search_tuples",
    "sieve_pipeline", "table_constants", "tail_term", "thue_scan",
    "trial_factor", "tuple_size_bound", "tuple_size_bound_closed",
    "tuple_size_small_regime", "verify_bipartite", "verify_tuple",
]
