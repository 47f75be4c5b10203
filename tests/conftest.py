"""Shared fixtures for the KOSR reproduction test suite."""

from __future__ import annotations

import random
import signal
import threading

import pytest

from repro import KOSREngine
from repro.graph.builders import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph

from reference_inverted import build_inverted_indexes
from reference_nn import LabelNNFinder
from reference_pll import build_reference_labels


#: wall-clock budget of any single test; the slowest today takes ~6 s
TEST_TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def _fail_hung_tests():
    """A hung test (a fleet waiting on a worker that will never answer)
    fails after ``TEST_TIMEOUT_S`` instead of stalling the whole job.

    ``SIGALRM`` interrupts the main thread wherever it blocks — pipe
    polls, lock waits, joins — and the exception unwinds the test like
    any failure, so fixtures still tear their fleets down.
    """
    if threading.current_thread() is not threading.main_thread():
        yield  # a runner that tests off the main thread: no signals there
        return

    def on_alarm(_signo, _frame):
        raise TimeoutError(
            f"test still running after {TEST_TIMEOUT_S}s (hung?)")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def fig1_graph():
    """The paper's Figure 1 graph (8 vertices, 14 edges, MA/RE/CI)."""
    return paper_figure1_graph()


@pytest.fixture(scope="session")
def fig1_engine(fig1_graph):
    """An engine with labels + inverted indexes over the Figure 1 graph."""
    return KOSREngine.build(fig1_graph, name="fig1")


@pytest.fixture(scope="session")
def small_engine():
    """A 40-vertex random strongly-connected graph with 3 categories."""
    g = random_graph(40, avg_out_degree=3.0, rng=random.Random(7))
    assign_uniform_categories(g, 3, 8, random.Random(8))
    return KOSREngine.build(g, name="small")


class _ReferenceEngine(KOSREngine):
    """An engine over the reference PLL's object output and object FindNN."""

    def _make_finder(self, nn_backend):
        if nn_backend == "label":
            return LabelNNFinder.from_index(self.labels, self.inverted)
        return super()._make_finder(nn_backend)


def reference_engine(graph, order=None):
    """The test reference: the object label/inverted indexes (explicit
    imports, like ``core/brute.py``), built by ``tests/reference_pll.py``
    — no code shared with the product's builder — behind the ordinary
    query dispatch.

    Every packed engine — built or attached — must answer with the same
    results *and* ``QueryStats`` counters as this one.  It is rebuilt,
    never updated in place: after a mutation, build a fresh one from the
    mutated graph.
    """
    labels = build_reference_labels(graph, order)
    return _ReferenceEngine(graph, labels,
                            build_inverted_indexes(graph, labels))


def make_categorized_graph(n: int, num_categories: int, category_size: int, seed: int):
    """Helper used by several modules: connected digraph + uniform categories."""
    g = random_graph(n, avg_out_degree=2.5, rng=random.Random(seed))
    assign_uniform_categories(
        g, num_categories, category_size, random.Random(seed + 1)
    )
    return g


# Hypothesis profiles: default stays fast; REPRO_THOROUGH=1 widens the
# property-test search (used for occasional deep runs, not CI).
import os

# REPRO_METRICS=1 runs the whole suite (CI: the parity + fuzz files)
# with the observability registry enabled, pinning that instrumentation
# never changes an answer or a QueryStats counter.
if os.environ.get("REPRO_METRICS"):
    from repro.obs.metrics import REGISTRY as _obs_registry

    _obs_registry.enable()

from hypothesis import settings as _hyp_settings

_hyp_settings.register_profile("thorough", max_examples=200, deadline=None)
if os.environ.get("REPRO_THOROUGH"):
    _hyp_settings.load_profile("thorough")
