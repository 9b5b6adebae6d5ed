"""Kac-Ward, Kasteleyn, Laplace and Dirac operators on weighted surface graphs."""

from .surface_graph import (Cochain, EmbeddedGraph, GraphError, SizeGuardError,
                            Weights, build_planar, build_torus,
                            character_cochain, dual, graph_from_json, turning)
from .derived import build_C, build_D, build_M, isoradial_data, validate_kasteleyn
from .linalg import lu_det as det
from .operators import (dirac_C, dirac_D, kac_ward, kasteleyn, laplacian,
                        laplacian_M, laplacian_dual, null_space,
                        skew_adjacency, sqrt_det_tracked, verify_corr,
                        verify_dirac_identities)

__all__ = [
    "Cochain", "EmbeddedGraph", "GraphError", "SizeGuardError", "Weights",
    "build_planar", "build_torus", "character_cochain", "dual",
    "graph_from_json", "turning",
    "build_C", "build_D", "build_M", "isoradial_data", "validate_kasteleyn",
    "det", "dirac_C", "dirac_D", "kac_ward", "kasteleyn", "laplacian",
    "laplacian_M", "laplacian_dual", "null_space", "skew_adjacency",
    "sqrt_det_tracked", "verify_corr", "verify_dirac_identities",
]

__version__ = "0.1.0"
