"""Search, verify and bound shifted-product tuples with exact arithmetic.

A tuple has the degree-k shifted-product property for shift n when every
pairwise product plus n is a k-th power of a positive integer; a bipartite
pair asks the same of every cross product.  This package enumerates such
sets up to a height, certifies the gap principle that forces their rapid
growth, evaluates every explicit size bound exactly or to high precision,
runs the larger-sieve estimate, and exhausts the prime-field analogues.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.  The layers load on
# first access (PEP 562), so importing the package, or one subcommand of
# the CLI, does not import every layer and mpmath with it.
_EXPORTS = {
    "bounds": ("BoundReport", "ThueScanReport", "bipartite_side_bound",
               "bound_reports", "evertse_constants", "large_element_exponents",
               "table_constants", "tail_term", "thue_scan", "tuple_size_bound",
               "tuple_size_bound_closed", "tuple_size_small_regime"),
    "core": ("BipartitePair", "DiophantineTuple", "GapCertificate",
             "GrowthReport", "TupleConfig", "VerifyReport",
             "check_gap_quadruple", "check_superexponential_growth",
             "gap_lower_bound", "growth_exponents", "verify_bipartite",
             "verify_tuple"),
    "errors": ("HypothesisError", "InputError", "InvariantViolation"),
    "exact": ("compare_value_to_power", "format_rational", "integer_kth_root",
              "is_perfect_kth_power", "is_prime", "parse_natural",
              "parse_rational", "primes_up_to", "trial_factor"),
    "ff": ("CharacterSumResult", "CliqueScanResult", "FieldConfig",
           "FieldScanResult", "char_sum", "ff_scan_bipartite", "ff_scan_clique",
           "primitive_root"),
    "search": ("SearchBudget", "SearchOutcome", "brute_force_tuples",
               "candidates_for", "kth_power_residues", "search_bipartite",
               "search_tuples"),
    "sieve": ("PipelineResult", "SieveEvaluation", "euler_phi",
              "gallagher_bound", "primes_in_class", "sieve_pipeline"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # an AttributeError for any other name lets `from diotuple import ff`
    # fall through to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
