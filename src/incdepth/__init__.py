"""Depth invariants of inclusion matrices.

Computes the minimum depth, minimum H-depth and transpose depth of a
nonnegative integer inclusion matrix two independent ways (boolean
support stabilization, bipartite graph eccentricities), bounds depth by
the minimal-polynomial degree of M M^t and takes the minimal witness q,
both from one exact Gram-power chain, and generates symmetric-group
inclusion matrices from the Young branching rule. All arithmetic is exact.
"""

from .exactmat import InclusionMatrix, IntMatrix, MatrixError, dominance_q
from .depth import (DepthReport, depth_report, min_depth, min_hdepth,
                    min_odd_depth_symmetric)
from .bigraph import (BipartiteGraph, build_graph, min_even_depth_graph,
                      min_hdepth_graph, min_odd_depth_graph, to_dot)
from .symgroup import branching_matrix, partitions, tower_matrix
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
