"""Exact-arithmetic spectral toolkit for kite graphs.

Characteristic polynomials over arbitrary-precision integers, cospectrality
decisions, spectral-radius and clique bounds, isomorph-free enumeration, and
exhaustive determined-by-spectrum verification at desk scale.
"""

from .graph import (
    Graph,
    KiteParams,
    clique_number,
    decode_graph6,
    encode_graph6,
    from_edges,
    is_connected,
    make_complete,
    make_cycle,
    make_gb,
    make_gc,
    make_kite,
    make_knm,
    make_path,
    make_star,
    parse_graph_spec,
    triangle_count,
)
from .polynomial import IntPolynomial
from .charpoly import (
    are_cospectral,
    charpoly,
    charpoly_interpolated,
    closed_form_complete,
    closed_form_gc,
    kite_charpoly,
    kite_u_identity_check,
    path_poly_a,
    walk_count,
)
from .bounds import (
    RadiusBounds,
    Spectrum,
    clique_lower_bound_spectral,
    eigenvalues,
    kite_clique_bound,
    kite_radius_bounds,
    nikiforov_bound,
    spectral_radius,
    verify_lemma41_inequality,
)
from .enumeration import (
    CanonicalKey,
    EnumConstraints,
    cache_load,
    cache_store,
    canonical_form,
    enumerate_graphs,
)
from .das import (
    SearchReport,
    candidate_triple_check,
    conjecture43_evidence,
    find_cospectral_mates,
    verify_theorem31,
    verify_theorem42,
)

__version__ = "0.1.0"
