"""General Kneser hypergraphs of representations, with exact desk-scale solvers.

Construction: hypergraphs and multigraphs (hyperstruct), occurrence
enumeration (patterns), Kneser powers and the named families (kneser).
Quantities: independence, covering, and chromatic numbers (exactsolve),
generalized and alternating Turan numbers, the Turan coloring, and ordering
certificates (turanalt). The harness module runs the golden suite of
closed-form chromatic numbers, and cli exposes everything as a
command-line tool.
"""

from types import ModuleType as _ModuleType

from .errors import InvalidParameterError, KneserTuranError, SizeCapError, VerificationError
from .exactsolve import (
    UNBOUNDED,
    ChromaticReport,
    ColoringCertificate,
    chromatic_number_graph,
    chromatic_number_hypergraph,
    covering_number,
    dsatur_coloring,
    independence_number,
    max_clique,
    validate_hypergraph_coloring,
)
from .harness import (
    MANIFEST,
    GoldenCase,
    run_golden_suite,
)
from .hyperstruct import (
    Hypergraph,
    LinearOrdering,
    SignVector,
    alt_of_vector,
    apply_ordering,
    bits_of,
    build_multigraph,
    build_named_family,
    canonical_dumps,
    doubled,
    from_dimacs,
    mask_of,
    to_dimacs,
)
from .kneser import (
    KneserInstance,
    NamedKneser,
    build_named_kneser,
    kneser_of_family,
    kneser_power,
)
from .patterns import (
    PatternFamily,
    are_isomorphic,
    enumerate_occurrences,
    family_of,
    find_isomorphism,
    pattern_hypergraph,
)
from .turanalt import (
    AltermaticCertificate,
    AlternatingColoring,
    TuranReport,
    alt_sigma_level,
    altermatic_certificate,
    ex_alt_min,
    ex_alt_sigma,
    interval_ordering,
    occurrence_masks,
    salt_sigma,
    turan_coloring,
    turan_number,
    verify_certificate,
    verify_turan_report,
)

__version__ = "0.1.0"

# the imported names, not the submodules that importing them binds here
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
