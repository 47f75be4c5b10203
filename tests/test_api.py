"""The typed request/response API: QueryOptions, QueryRequest.

Pins the PR 4 redesign contracts:

* options are frozen value objects with the defaults defined once;
* every entry point takes the options object and nothing else: the old
  keyword style is Python's own ``TypeError``, and no options means
  ``DEFAULT_OPTIONS``;
* the historical ``engine.query`` drift — ``strict_budget`` silently
  dropped on the way to ``run`` — is fixed and structurally impossible
  (both paths build the same ``QueryOptions``);
* ``QueryRequest.key`` is the coalescing identity (options included)
  and ``group_key`` matches the batch executor's grouping.
"""

import random
import warnings

import pytest

from repro import (
    BudgetExceededError,
    KOSREngine,
    QueryOptions,
    QueryRequest,
    QueryService,
    make_query,
)
from repro.api import DEFAULT_OPTIONS
from repro.exceptions import QueryError
from repro.service.execution import execute_plan
from repro.shard import ShardedQueryService
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories

from test_backend_parity import assert_same_outcome


@pytest.fixture(scope="module")
def engine():
    g = random_graph(40, avg_out_degree=2.8, rng=random.Random(41))
    assign_uniform_categories(g, 4, 7, random.Random(42))
    return KOSREngine.build(g)


class TestQueryOptions:
    def test_defaults_defined_once(self):
        assert QueryOptions() == DEFAULT_OPTIONS
        assert DEFAULT_OPTIONS.method == "SK"
        assert DEFAULT_OPTIONS.nn_backend == "label"
        assert DEFAULT_OPTIONS.budget is None
        assert not DEFAULT_OPTIONS.strict_budget

    def test_frozen_and_hashable(self):
        opts = QueryOptions(method="PK", budget=10)
        with pytest.raises(AttributeError):
            opts.method = "SK"
        assert opts == QueryOptions(method="PK", budget=10)
        assert len({opts, QueryOptions(method="PK", budget=10)}) == 1

    def test_replace_returns_new(self):
        opts = QueryOptions()
        strict = opts.replace(strict_budget=True)
        assert strict.strict_budget and not opts.strict_budget
        assert strict.method == opts.method

    def test_rejects_negative_budgets(self):
        with pytest.raises(QueryError, match="budget"):
            QueryOptions(budget=-1)
        with pytest.raises(QueryError, match="time_budget_s"):
            QueryOptions(time_budget_s=-0.5)

    def test_plan_for_validates_vocabulary(self):
        with pytest.raises(QueryError, match="unknown method"):
            QueryOptions(method="NOPE").plan_for()
        plan = QueryOptions(method="PK").plan_for()
        assert plan.method == "PK" and plan.nn_backend == "label"


class TestQueryRequest:
    def test_key_includes_options(self, engine):
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)
        a = QueryRequest(q, QueryOptions())
        b = QueryRequest(q, QueryOptions(budget=5))
        assert a.key != b.key
        assert a.key == QueryRequest(q).key  # defaults are canonical

    def test_key_is_s_t_c_k_identity(self, engine):
        g = engine.graph
        a = QueryRequest(make_query(g, 0, 30, [0, 1], k=2))
        b = QueryRequest(make_query(g, 0, 30, [0, 1], k=2))
        c = QueryRequest(make_query(g, 1, 30, [0, 1], k=2))
        assert a.key == b.key and hash(a) == hash(b)
        assert a.key != c.key

    def test_group_key_matches_batch_grouping(self, engine):
        g = engine.graph
        q = make_query(g, 3, 30, [1, 0], k=2)
        assert QueryRequest(q).group_key == (30, (1, 0))
        groups = QueryService.group_queries([q])
        assert QueryRequest(q).group_key in groups


@pytest.fixture(scope="module")
def entry_points(engine):
    """Every query entry point, closed over one query: ``call(*options)``."""
    q = make_query(engine.graph, 0, 30, [0, 1], k=2)
    service = QueryService(engine)
    plan = DEFAULT_OPTIONS.plan_for()
    with ShardedQueryService.from_engine(engine, 2) as fleet:
        yield {
            "KOSREngine.run":
                lambda *a, **kw: engine.run(q, *a, **kw),
            "execute_plan":
                lambda *a, **kw: execute_plan(engine, plan, q, *a, **kw),
            "QueryService.run":
                lambda *a, **kw: service.run(q, *a, **kw),
            "QueryService.run_batch":
                lambda *a, **kw: service.run_batch([q], *a, **kw).results[0],
            "ShardedQueryService.run":
                lambda *a, **kw: fleet.run(q, *a, **kw),
            "ShardedQueryService.run_batch":
                lambda *a, **kw: fleet.run_batch([q], *a, **kw).results[0],
        }


class TestOneCallingConvention:
    @pytest.mark.parametrize("name", [
        "KOSREngine.run", "execute_plan",
        "QueryService.run", "QueryService.run_batch",
        "ShardedQueryService.run", "ShardedQueryService.run_batch"])
    def test_options_object_or_nothing(self, entry_points, name):
        call = entry_points[name]
        for legacy in ({"method": "PK"}, {"budget": 1},
                       {"strict_budget": True}, {"max_workers": 2}):
            with pytest.raises(TypeError, match=next(iter(legacy))):
                call(**legacy)
        assert_same_outcome(call(), call(DEFAULT_OPTIONS))

    def test_options_path_does_not_warn(self, engine):
        q = make_query(engine.graph, 0, 30, [0], k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.run(q, QueryOptions())
            engine.query(0, 30, [0], k=1, method="PK")  # keyword sugar stays
            engine.service.run(q, QueryOptions())

    def test_unknown_keyword_rejected(self, engine):
        q = make_query(engine.graph, 0, 30, [0], k=1)
        with pytest.raises(TypeError, match="bogus"):
            engine.run(q, bogus=1)

    def test_old_positional_method_gets_a_clear_error(self, engine):
        """Pre-PR-4 `run(q, "PK")` must fail loudly, not deep inside."""
        q = make_query(engine.graph, 0, 30, [0], k=1)
        with pytest.raises(TypeError, match="QueryOptions"):
            engine.run(q, "PK")
        with pytest.raises(TypeError, match="QueryOptions"):
            engine.service.run(q, "PK")

    def test_query_keywords_layer_over_options_too(self, engine):
        """query(..., options=..., budget=1) must not drop the keyword."""
        with pytest.raises(BudgetExceededError):
            engine.query(0, engine.graph.num_vertices - 1, [0, 1, 2], k=3,
                         budget=1, strict_budget=True,
                         options=QueryOptions(method="KPNE"))


class TestStrictBudgetDriftFix:
    """``engine.query`` used to silently drop ``strict_budget``."""

    def test_query_forwards_strict_budget(self, engine):
        with pytest.raises(BudgetExceededError):
            engine.query(0, engine.graph.num_vertices - 1, [0, 1, 2], k=3,
                         method="KPNE", budget=1, strict_budget=True)

    def test_query_and_run_agree_on_every_option(self, engine):
        opts = QueryOptions(method="PK", budget=10_000, restore_routes=True,
                            profile=True)
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)
        via_query = engine.query(0, 30, [0, 1], k=2, options=opts)
        via_run = engine.run(q, opts)
        assert_same_outcome(via_query, via_run)
        assert via_query.results[0].route is not None  # restore_routes took

    def test_batch_accepts_strict_budget(self, engine):
        """run_batch historically had no strict_budget at all."""
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        with pytest.raises(BudgetExceededError):
            QueryService(engine).run_batch(
                [q], QueryOptions(method="KPNE", budget=1, strict_budget=True))
