"""Streaming (hyper)graph decomposition toolkit.

One-pass and buffered streaming graph partitioners, a streaming hypergraph
partitioner, an on-the-fly hierarchical process mapper, exact quality
metrics, and a batch CLI.
"""

from .partition import UNASSIGNED, MinBlockHeap, PartitionState, compute_lmax
from .streams import (FormatError, GraphStreamHeader, HypergraphStreamHeader,
                      StreamedHyperNodeRecord, StreamedNodeRecord,
                      open_graph_stream, open_hypergraph_node_stream,
                      transpose_hmetis)
from .metrics import QualityReport, comm_cost, cut_net_and_connectivity, \
    edge_cut, imbalance
from .onepass import (FennelParams, OnePassConfig, fennel_alpha, fennel_assign,
                      fennel_gain, hashing_assign, ldg_assign, run_onepass,
                      run_restream)
from .freight import (FreightConfig, NetTracker, SortedBlocks, freight_assign,
                      run_freight)
from .multisection import (HierarchySpec, MultisectionTree, OmsConfig,
                           build_from_spec, build_hierarchy,
                           heterogeneous_alpha, oms_assign, run_oms)
from .heistream import (BatchModel, HeiStreamConfig, build_model, coarsen,
                        commit_batch, initial_partition, load_batch,
                        run_heistream, uncoarsen_refine)

__version__ = "0.1.0"
