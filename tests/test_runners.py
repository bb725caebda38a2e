"""The runner contract: the caller builds a run's PartitionState (with c(V))
and FennelParams, and each ``run_*`` fills in that state and returns it."""

import random

import pytest

from streamdecomp.freight import run_freight
from streamdecomp.heistream import HeiStreamConfig, run_heistream
from streamdecomp.multisection import HierarchySpec, OmsConfig, run_oms

from generators import random_graph, random_hypergraph, run_setup
from reference import check_consistency, stream_records

# runner name -> (node-weighted input builder, run function)
RUNNERS = {
    "freight": (
        lambda rng: random_hypergraph(rng, 120, 90, max_pins=5,
                                      max_node_weight=6),
        lambda stream, state, params: run_freight(stream, state, params)),
    "heistream": (
        lambda rng: random_graph(rng, 120, 300, max_node_weight=6),
        lambda stream, state, params: run_heistream(
            stream, HeiStreamConfig(delta=30, seed=1), state, params)),
    "oms": (
        lambda rng: random_graph(rng, 120, 300, max_node_weight=6),
        lambda stream, state, params: run_oms(stream, OmsConfig(), state,
                                              params)),
}


class TestRunnerContract:
    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_returns_the_given_state(self, runner):
        build, run = RUNNERS[runner]
        stream = build(random.Random(5))
        weights = [r.weight for r in stream_records(stream)]
        state, params = run_setup(stream, 4, epsilon=0.1)
        assert state.total_weight == sum(weights) != stream.header.n
        assert run(stream, state, params) is state
        check_consistency(state, weights)
        assert max(state.block_weight) <= state.l_max

    def test_oms_rejects_a_hierarchy_of_another_k(self):
        stream = random_graph(random.Random(6), 40, 80)
        state, params = run_setup(stream, 4)
        with pytest.raises(AssertionError, match="k=8"):
            run_oms(stream, OmsConfig(), state, params,
                    HierarchySpec.parse("2:4", "1:10"))
