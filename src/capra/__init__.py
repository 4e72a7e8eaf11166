"""Conjugacy toolkit for 0-homogeneous functions.

Capra (constant-along-primal-rays) couplings and conjugates, top-k and
k-support norms, and the tightest convex / positively 1-homogeneous / norm
lower approximations of sparsity measures on unit balls, all validated
against brute-force grid oracles.
"""

from .numerics import (
    Grid,
    FunctionSample,
    as_extreal,
    build_grid,
    default_dual_grid,
    low_add,
    read_sample_csv,
    sample,
    upp_add,
    write_sample_csv,
)
from .norms import (
    NormObject,
    NormalizationSpec,
    PhiSpec,
    SourceNormSpec,
    best_norm_object,
    conj_exponent,
    dual_coordinate_k_norm,
    k_support_norm,
    lp_value,
    parse_config,
    phi_dual_gauge,
    phi_dual_gauge_batch,
    top_k_norm,
)
from .conjugacy import (
    CouplingSpec,
    ZeroHomFnSpec,
    build_sphere_sample,
    capra_conjugate,
    capra_conjugate_direct,
    capra_conjugate_l0_analytic,
    capra_coupling,
    capra_subdiff_at_zero,
    capra_subdiff_contains,
    conjugate_at_points,
    fenchel_biconjugate,
    fenchel_conjugate,
)
from .envelope import (
    ball_box_grid,
    best_cvx_on_subset,
    best_pos_hom_on_subset,
    l0_envelope_linf,
    surface_summary,
    tightest_convex_on_ball,
    tightest_pos_hom_on_ball,
    write_surface_json,
)
from .oracle import (
    convex_envelope_2d,
    default_direction_set,
    k_support_bruteforce,
    naive_conjugate,
    support_function_bruteforce,
)

__version__ = "0.1.0"
