"""The package's export list, pinned so that it changes only on purpose.

``__all__`` is every public name of the package namespace, so it also holds
the submodules that importing the package loads.
"""

import kneserturan

EXPORTS = [
    "AltermaticCertificate", "AlternatingColoring", "ChromaticReport",
    "ColoringCertificate", "GoldenCase", "Hypergraph", "InvalidParameterError",
    "KneserInstance", "KneserTuranError", "LinearOrdering", "MANIFEST", "NamedKneser",
    "PatternFamily", "PatternOccurrence", "SignVector", "SizeCapError", "TuranReport",
    "UNBOUNDED", "VerificationError", "alt_of_vector", "alt_prime_sigma_level",
    "alt_sigma_level", "altermatic_certificate", "apply_ordering", "are_isomorphic",
    "bits_of", "build_multigraph", "build_named_family", "build_named_kneser",
    "canonical_dumps", "chromatic_number_graph", "chromatic_number_hypergraph",
    "covering_number", "doubled", "dsatur_coloring", "enumerate_occurrences", "errors",
    "ex_alt_min", "ex_alt_sigma", "exactsolve", "family_of", "find_isomorphism",
    "from_dimacs", "harness", "hyperstruct", "independence_number", "interval_ordering",
    "kernels", "kneser", "kneser_of_family", "kneser_power", "mask_of", "max_clique",
    "occurrence_masks", "pattern_hypergraph", "patterns", "run_golden_suite",
    "salt_sigma", "strip_isolated", "to_dimacs", "turan_coloring", "turan_number",
    "turanalt", "validate_graph_coloring", "validate_hypergraph_coloring",
    "verify_certificate", "verify_representation", "verify_turan_report",
]


def test_export_list_is_pinned():
    assert sorted(kneserturan.__all__) == EXPORTS
