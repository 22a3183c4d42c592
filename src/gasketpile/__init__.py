"""Sandpile dynamics, group structure, and mixing on Sierpinski gaskets."""

from .gasket import (
    LOWER_LEFT,
    LOWER_RIGHT,
    TOP,
    Boundary,
    GasketGraph,
    NORMAL,
    build_gasket,
    corner_sink,
    parse_boundary,
    reduced_laplacian,
    rotation_ccw,
    subcopy_embedding,
)
from .sandpile import (
    Configuration,
    config,
    identity,
    is_recurrent_burning,
    max_config,
    oplus,
    recurrent_rep,
    stabilize,
    zero_config,
)
from .selfsim import (
    build_tile,
    identity_from_tiles,
    rotate_config,
    verify_corner_transport,
    verify_doubling,
    verify_junction_invariance,
)
from .group import (
    check_group_theorem,
    determinant,
    quotient_invariants,
    sandpile_group_invariants,
    sandpile_group_order,
    tau_matrix_tree,
    tau_recursion,
)
from .spectral import (
    HarmonicFunction,
    cell_harmonic,
    distinguishing_statistic,
    enumerate_characters,
    eigenvalue,
    exact_distance,
)
from .markov import (
    estimate_chi_decay,
    mixing_report,
    run_chain,
    sample_stationary,
    tv_lower_bound,
)

__version__ = "0.1.0"
