"""Exact domination polynomials of small graphs.

Count dominating sets by brute force, evaluate the cycle-family
recurrences in exact integer arithmetic, and verify at desk scale that
a cycle's domination polynomial identifies it uniquely.
"""

from .cycles import (
    alpha,
    beta,
    cycle_polynomial,
    predicted_ord3,
    theta,
)
from .errors import (
    Graph6FormatError,
    Graph6ParseError,
    Graph6RangeError,
    InputError,
    InternalInconsistencyError,
    ParameterDomainError,
    SizeGuardError,
    ValuationError,
)
from .graphs import (
    Graph,
    build_family,
    complete,
    complete_cycle_join,
    cycle,
    disjoint_union,
    encode_graph6,
    iter_graph6_records,
    join,
    parse_graph6,
    path,
    wheel,
)
from .oracle import (
    DEFAULT_GUARD,
    domination_number,
    domination_polynomial,
    domination_profile,
)
from .polynomials import IntPolynomial, ord_p

__version__ = "0.1.0"
