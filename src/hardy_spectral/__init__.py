"""Eigenvalue bounds for vertex- and edge-weighted graphs.

The library computes the fundamental (Neumann) and boundary-pinned
(Dirichlet) generalized Laplacian eigenvalues, the effective-resistance
content quantities that sandwich them within a factor of four, the
isoperimetric constant, and the graph surgeries (edge splitting,
contraction, pinching, level-set reduction) used to certify the bounds on
arbitrary small graphs.
"""

from ._version import __version__
from .content import (ContentResult, dirichlet_content_exact, hardy_path,
                      isoperimetric_exact, level_set_quotient,
                      neumann_content_exact, neumann_content_sweep)
from .graph import (PinchedGraph, VertexSet, WeightedGraph, components,
                    contract, path_graph, pinch, random_graph, split_edge,
                    validate)
from .linalg import (EigenDecomposition, cholesky_solve, jacobi_eigen,
                     quadratic_form)
from .report import VerificationReport, emit_report
from .resistance import effective_resistance, resistance_via_pseudoinverse
from .rng import Xorshift64Star
from .spectral import (SpectralResult, dirichlet_eigenvalue,
                       harmonic_extension, laplacian, neumann_eigenvalue,
                       rayleigh_quotient)
from .suite import run_suite
from .wgr import parse_wgr, serialize_wgr

__all__ = [
    "__version__",
    "ContentResult", "dirichlet_content_exact", "hardy_path",
    "isoperimetric_exact", "level_set_quotient", "neumann_content_exact",
    "neumann_content_sweep",
    "PinchedGraph", "VertexSet", "WeightedGraph", "components", "contract",
    "path_graph", "pinch", "random_graph", "split_edge", "validate",
    "EigenDecomposition", "cholesky_solve", "jacobi_eigen", "quadratic_form",
    "VerificationReport", "emit_report",
    "effective_resistance", "resistance_via_pseudoinverse",
    "Xorshift64Star",
    "SpectralResult", "dirichlet_eigenvalue", "harmonic_extension",
    "laplacian", "neumann_eigenvalue", "rayleigh_quotient",
    "run_suite",
    "parse_wgr", "serialize_wgr",
]
