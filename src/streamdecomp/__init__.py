"""Streaming (hyper)graph decomposition toolkit.

One-pass and buffered streaming graph partitioners, a streaming hypergraph
partitioner, an on-the-fly hierarchical process mapper, exact quality
metrics, and a batch CLI.
"""

from .partition import UNASSIGNED, PartitionState, compute_lmax
from .streams import (FormatError, MemoryStream, StreamedNodeRecord,
                      StreamHeader, open_graph_stream,
                      open_hypergraph_node_stream, transpose_hmetis)
from .metrics import block_weights, comm_cost, cut_net_and_connectivity, \
    edge_cut, imbalance
from .onepass import (FennelParams, OnePassConfig, fennel_alpha, fennel_assign,
                      fennel_penalties, hashing_assign, ldg_assign,
                      ldg_free, run_onepass, run_restream)
from .freight import SortedBlocks, freight_assign, run_freight
from .multisection import (HierarchySpec, OmsConfig, TreeBlock,
                           build_from_spec, build_hierarchy,
                           heterogeneous_alpha, oms_assign, run_oms)
from .heistream import HeiStreamConfig, run_heistream

__version__ = "0.1.0"
