"""Exact Voronoi/Delaunay combinatorics of banana-graph Jacobians and the
degenerate KP solitons they index.

The package is organized in layers: lattice geometry (graph_jacobian),
polytope combinatorics (voronoi_combinatorics), orientations and matroids
(orientations_matroids), degenerate period data (tropical_limit), the three
soliton parametrizations (hirota_parametrization), tau functions with exact
and numeric certification (tau_kp), the quartic face equations
(hirota_variety_eqs), and a command line front end (cli).
"""
