"""Bounded model check of the fleet protocol over the in-thread fleet.

One hypothesis state machine drives a 2-shard
:class:`~fleet_fakes.InThreadFleet` (the production parent and
``worker_main``, unchanged, over fake pipes) through random
interleavings of queries, category updates, compaction, edge updates
and *transport faults* armed at exact protocol points — a worker dying,
a request or reply frame vanishing, a reply arriving after its exchange
was abandoned.  After every step the fleet must be consistent (not
diverged, every worker answering, exactly one respawn per worker
death; an edge update's replacement workers are not respawns), and
every query must equal a fresh unsharded engine built from the fleet's
current graph, in results and ``QueryStats`` counters.
"""

import random
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro import KOSREngine, QueryOptions
from repro.graph.builders import random_graph
from repro.graph.categories import assign_uniform_categories

from fleet_fakes import InThreadFleet
from test_backend_parity import assert_same_outcome

N, CATS, SHARDS = 40, 4, 2
#: request timeout of the modelled fleet, and how long a delayed reply
#: is held: past one timeout (the exchange is abandoned, the reply goes
#: stale) but inside the retry's, so only a *death* forces a respawn
TIMEOUT_S, DELAY_S = 0.2, 0.3

_GRAPH = random_graph(N, avg_out_degree=2.8, rng=random.Random(71))
assign_uniform_categories(_GRAPH, CATS, 7, random.Random(72))
_ENGINE = KOSREngine.build(_GRAPH.copy())
_TMP = tempfile.TemporaryDirectory(prefix="repro-fleet-model-")
_INDEX_PATH = f"{_TMP.name}/fleet.rpli"
_ENGINE.save_index(_INDEX_PATH)

vertices = st.integers(0, N - 1)
categories = st.integers(0, CATS - 1)
shards = st.integers(0, SHARDS - 1)
points = st.sampled_from(["before", "after"])
#: a fault armed right ahead of a mutation, so that it is sure to fire;
#: mostly deaths, which cost milliseconds where a drop or a delay costs
#: a request timeout.  The standalone ``arm`` rule adds the faults that
#: sit armed across other operations.
faults = st.none() | st.tuples(
    shards, points, st.sampled_from(["die"] * 4 + ["drop", "delay"]))


class FleetProtocol(RuleBasedStateMachine):
    fleet = None

    @initialize(from_index_file=st.booleans())
    def spawn(self, from_index_file):
        if from_index_file:
            self.fleet = InThreadFleet(_GRAPH.copy(), SHARDS,
                                       index_path=_INDEX_PATH,
                                       timeout_s=TIMEOUT_S)
        else:
            self.fleet = InThreadFleet(_GRAPH.copy(), SHARDS,
                                       labels=_ENGINE.labels,
                                       timeout_s=TIMEOUT_S)
        self._fresh = None  # cold engine over the fleet's current graph

    def teardown(self):
        if self.fleet is not None:
            self.fleet.close()

    def _mutating(self, kind, fault):
        self._fresh = None
        if fault is not None:
            shard, when, action = fault
            self.fleet.arm(shard, kind, when, action, delay_s=DELAY_S)

    # -- operations ----------------------------------------------------
    @rule(s=vertices, t=vertices,
          cats=st.lists(categories, min_size=1, max_size=3, unique=True),
          k=st.integers(1, 3))
    def query(self, s, t, cats, k):
        if self._fresh is None:
            self._fresh = KOSREngine.build(self.fleet.graph.copy())
        q = self.fleet.make_query(s, t, cats, k=k)
        assert_same_outcome(self.fleet.run(q, QueryOptions()),
                            self._fresh.run(q))

    @rule(v=vertices, cid=categories, fault=faults)
    def add(self, v, cid, fault):
        self._mutating("update", fault)
        self.fleet.add_vertex_to_category(v, cid)

    @rule(v=vertices, cid=categories, fault=faults)
    def remove(self, v, cid, fault):
        if self.fleet.graph.category_size(cid) > 1:
            self._mutating("update", fault)
            self.fleet.remove_vertex_from_category(v, cid)

    @rule(fault=faults)
    def compact(self, fault):
        self._mutating("compact", fault)
        self.fleet.compact()

    @rule(u=vertices, v=vertices,
          weight=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def update_edge(self, u, v, weight):
        # No message to fault: the update replaces every worker, and
        # faults still armed on the old ones go with them.
        if u != v:
            self._fresh = None
            self.fleet.update_edge(u, v, weight)

    @rule(shard=shards, when=points,
          kind=st.sampled_from(["update", "compact"]),
          action=st.sampled_from(["die", "drop", "delay"]))
    def arm(self, shard, kind, when, action):
        self.fleet.arm(shard, kind, when, action, delay_s=DELAY_S)

    # -- what must hold after every step -------------------------------
    @invariant()
    def fleet_is_consistent(self):
        fleet = self.fleet
        assert fleet._diverged is None
        assert all(report["alive"] for report in fleet.ping())
        deaths = [fault for fault in fleet.fired if fault[3] == "die"]
        assert fleet.respawns == len(deaths), (fleet.respawns, fleet.fired)


FleetProtocol.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None,
    derandomize=True)
TestFleetProtocol = FleetProtocol.TestCase
