"""Exact Voronoi/Delaunay combinatorics of banana-graph Jacobians and the
degenerate KP solitons they index.

The package is organized in layers: lattice geometry (graph_jacobian),
polytope combinatorics (voronoi_combinatorics), orientations and matroids
(orientations_matroids), degenerate period data (tropical_limit), the three
soliton parametrizations (hirota_parametrization), tau functions with exact
and numeric certification (tau_kp), the quartic face equations
(hirota_variety_eqs), and a command line front end (cli).
"""

from .graph_jacobian import (
    BananaData,
    DelaunaySet,
    VoronoiVertex,
    build_banana,
    delaunay_set,
    voronoi_contains,
)
from .hirota_parametrization import (
    GrassmannPoint,
    HirotaPoint,
    alpha_from_beta,
    beta_lambda_convert,
    check_dn_interlacing,
    hirota_point,
    invert_psi,
    lambda_from_divisor,
    matrix_A,
    matrix_A_dual,
    matrix_A_tilde,
    vandermonde_minor,
    verify_minor_identity,
)
from .hirota_variety_eqs import (
    QuarticRelation,
    SquaredPoint,
    face_direction_classes,
    instantiate_and_check,
    squared_set,
)
from .orientations_matroids import (
    MatroidBases,
    Orientation,
    circuit_difference,
    delaunaytroid,
    matroid_bases,
    orientation_to_vertex,
    vertex_to_orientation,
)
from .tau_kp import (
    TauFunction,
    evaluate_u,
    evaluate_u_grid,
    hirota_residual,
    kp_residual_numeric,
    spacetime_inversion_check,
    tau_from_grassmannian,
    tau_from_hirota_point,
)
from .tropical_limit import (
    Divisor,
    KappaConfig,
    PeriodVectors,
    RMatrix,
    abel_map,
    kappa_config,
    limit_R,
    make_divisor,
    theta_coefficients,
    uvw,
)
from .voronoi_combinatorics import (
    ShiftVector,
    canonical_vertex,
    f_vector,
    normalize_delaunay,
    shift_vector,
    voronoi_vertices,
)

__version__ = "0.1.0"
