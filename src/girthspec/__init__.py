"""Short-cycle counting in bipartite graphs.

Counts cycles of length g through 2g-2 exactly, from traces of the directed
edge (non-backtracking) matrix or, for bi-regular graphs, from the paper's
quadratic eigenvalue transfer taken to integer adjacency power sums.
A brute-force enumeration and the float pipelines (the paper's transfer
and the direct edge-matrix eigensolve) are included for verification.
"""

from .counts import CycleCounts
from .cycle_count import (
    brute_force_counts,
    counts_from_spectrum,
    g_plus_4_cross_check,
    tree_walk_count,
)
from .edge_matrix import (
    DirectedEdgeMatrix,
    EdgeSpectrum,
    build_edge_matrix,
    edge_spectrum_direct,
    trace_power_counts,
)
from .errors import (
    GenerationError,
    GirthspecError,
    NumericalError,
    ParseError,
    RouteInapplicableError,
    SizeCapError,
)
from .graph_core import (
    BipartiteGraph,
    GraphProfile,
    complete_bipartite,
    even_cycle,
    girth,
    profile,
    random_biregular,
    tesseract,
)
from .graph_io import parse_alist, parse_edge_list, write_alist, write_edge_list
from .spectra import AdjacencySpectrum, adjacency_spectrum, rank_of_biadjacency
from .spectral_transfer import (
    TransferParameters,
    derive_edge_spectrum,
    solve_transfer_quadratic,
    transfer_counts,
)

__version__ = "0.1.0"
