"""Answer checking.

Every reply is checked structurally; a seed-fixed 1-in-10 sample of the
queries is also compared — costs, witnesses and both search counters —
with a cold ``KOSREngine.run`` on the benchmark's own engine.  For a
workload with updates the comparison engine is a *mirror* that applies
the same updates in the same order, so each sampled query is answered
against exactly the update prefix the deployment had seen.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from repro.api import QueryOptions

from benchmarks.kosr.workload import is_update

SAMPLE_EVERY = 10


def encode_result(result, request_id) -> dict:
    """A ``KOSRResult`` in the TCP reply's shape, so API-driven
    deployments are checked by the same code as socket-driven ones."""
    stats = result.stats
    return {"id": request_id, "costs": result.costs,
            "witnesses": [list(w) for w in result.witnesses],
            "completed": stats.completed,
            "examined_routes": stats.examined_routes,
            "nn_queries": stats.nn_queries,
            "time_ms": stats.total_time * 1000.0}


def structural_error(op: dict, reply: Optional[dict]) -> Optional[str]:
    """Why ``reply`` cannot be a good answer to ``op`` (None if it can)."""
    if reply is None:
        return "missing reply"
    if "error" in reply:
        kind = "refused" if reply.get("overloaded") else "error"
        return f"{kind}: {reply['error']}"
    if is_update(op):
        return None if reply.get("ok") else "update not acknowledged"
    if reply.get("id") != op["id"]:
        return f"reply id {reply.get('id')!r} for request {op['id']!r}"
    if not reply.get("completed"):
        return "search did not complete"
    costs = reply.get("costs")
    if not isinstance(costs, list) or not 1 <= len(costs) <= op["k"]:
        return f"expected 1..{op['k']} costs, got {costs!r}"
    # Equal-cost routes whose sums differ in the last bit keep the
    # search's discovery order, so "ascending" allows for rounding.
    if any(a - b > 1e-9 * max(1.0, abs(b)) for a, b in zip(costs, costs[1:])):
        return "costs are not ascending"
    if len(reply.get("witnesses", ())) != len(costs):
        return "witnesses do not match costs"
    return None


def sampled_ids(ops: Sequence[dict], seed: int) -> Set[int]:
    """The seed-fixed 1-in-10 sample of query operations."""
    queries = [op["id"] for op in ops if not is_update(op)]
    count = max(1, len(queries) // SAMPLE_EVERY)
    return set(random.Random(f"oracle:{seed}").sample(queries, count))


class Oracle:
    """Cold answers from the benchmark's own engine."""

    def __init__(self, engine, method: str):
        self.engine = engine
        self.options = QueryOptions(method=method)

    def expected(self, op: dict) -> dict:
        query = self.engine.make_query(op["source"], op["target"],
                                       op["categories"], k=op["k"])
        return encode_result(self.engine.run(query, self.options), op["id"])

    def mismatch(self, op: dict, reply: dict) -> Optional[str]:
        expected = self.expected(op)
        for field in ("costs", "witnesses", "nn_queries", "examined_routes"):
            if reply.get(field) != expected[field]:
                return (f"{field}: got {reply.get(field)!r}, a cold engine "
                        f"gives {expected[field]!r}")
        return None

    def apply(self, op: dict) -> None:
        """Mirror one update."""
        update = (self.engine.add_vertex_to_category
                  if op["update"] == "add"
                  else self.engine.remove_vertex_from_category)
        update(op["vertex"], op["category"])

    def failures(self, ops: Sequence[dict], replies: Sequence[Optional[dict]],
                 seed: int) -> List[Tuple[int, str]]:
        """``(operation id, reason)`` per failed operation, in order.  ``ops`` must be
        the whole sequence the deployment executed, so the mirror sees
        every update."""
        sample = sampled_ids(ops, seed)
        problems = []
        for op, reply in zip(ops, replies):
            problem = structural_error(op, reply)
            if is_update(op):
                self.apply(op)
            elif problem is None and op["id"] in sample:
                problem = self.mismatch(op, reply)
            if problem is not None:
                problems.append((op["id"], problem))
        return problems
