"""The package's export list, pinned so that it changes only on purpose.

``__all__`` is every name the package imports from its submodules; the
submodules themselves, which importing the package binds, are not in it.
"""

import kneserturan

EXPORTS = [
    "AltermaticCertificate", "AlternatingColoring", "ChromaticReport",
    "ColoringCertificate", "GoldenCase", "Hypergraph", "InvalidParameterError",
    "KneserInstance", "KneserTuranError", "LinearOrdering", "MANIFEST", "NamedKneser",
    "PatternFamily", "SignVector", "SizeCapError", "TuranReport", "UNBOUNDED",
    "VerificationError", "alt_of_vector", "alt_sigma_level", "altermatic_certificate",
    "apply_ordering", "are_isomorphic", "bits_of", "build_multigraph",
    "build_named_family", "build_named_kneser", "canonical_dumps",
    "chromatic_number_graph", "chromatic_number_hypergraph", "covering_number",
    "doubled", "dsatur_coloring", "enumerate_occurrences", "ex_alt_min", "ex_alt_sigma",
    "family_of", "find_isomorphism", "from_dimacs", "independence_number",
    "interval_ordering", "kneser_of_family", "kneser_power", "mask_of", "max_clique",
    "occurrence_masks", "pattern_hypergraph", "run_golden_suite", "salt_sigma",
    "to_dimacs", "turan_coloring", "turan_number", "validate_hypergraph_coloring",
    "verify_certificate", "verify_turan_report",
]


def test_export_list_is_pinned():
    assert sorted(kneserturan.__all__) == EXPORTS
