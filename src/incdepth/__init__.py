"""Depth invariants of inclusion matrices.

Computes the minimum depth, minimum H-depth and transpose depth of a
nonnegative integer inclusion matrix by three independent methods (exact
bracketed-power inequalities, boolean support stabilization, bipartite
graph diameters), bounds them with the minimal-polynomial degree of
M M^t, and generates symmetric-group inclusion matrices from the Young
branching rule. All arithmetic is exact.
"""

from .exactmat import IntMatrix, MatrixError, SupportMatrix, dominance_q
from .depth import (DepthReport, InclusionMatrix, bracketed_power, depth_report,
                    has_depth, min_depth, min_hdepth, min_odd_depth_symmetric)
from .bigraph import (BipartiteGraph, black_diameter, build_graph,
                      min_even_depth_graph, min_hdepth_graph,
                      min_odd_depth_graph, to_dot)
from .charpoly import (IntPolynomial, char_poly, depth_upper_bound,
                       minpoly_degree, poly_gcd)
from .symgroup import Partition, branching_matrix, partitions, tower_matrix
from .cli import (MatrixParseError, fixture_path, parse_int_matrix,
                  parse_matrix, render_matrix)

__version__ = "0.1.0"

# The API that README.md documents; the other imports above stay reachable
# as attributes of the package.
__all__ = [
    "DepthReport",
    "InclusionMatrix",
    "MatrixError",
    "MatrixParseError",
    "build_graph",
    "depth_report",
    "fixture_path",
    "min_depth",
    "min_hdepth",
    "min_odd_depth_graph",
    "parse_matrix",
    "render_matrix",
    "tower_matrix",
]
