"""Plan-aware routing: which shard serves a request.

The sharded service partitions *categories* across worker processes; a
query's method row (:class:`~repro.service.planner.MethodSpec`)
declares whether it consumes the category inverted indexes at all
(``needs_finder``), and the query itself names the categories it
touches — together they pick the one shard that serves it:

* a method with no finder need (GSP / GSP-CH run over the replicated
  topology alone) can execute anywhere → round-robin;
* a method with a finder need routes to its *primary* owner, the owner
  of its first category (``owners(categories)[0]``).

A category set that *spans* shards runs once, on the primary, which
faults in the inverted indexes of the categories it does not own.  Hub
labels depend only on topology and a sequenced query reads only its own
categories' indexes plus the labels of ``s`` and ``t``, so that one
shard's answer — results and ``QueryStats`` — is bit-identical to an
unsharded cold engine's.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.types import CategoryId


class CategoryShardRouter:
    """Static category → shard partition (``cid % num_shards``).

    The modulo map needs no coordination state, balances the uniform /
    zipfian category assignments of the benchmarks well, and keeps
    working for categories created after the partition was fixed
    (dynamic ``add_category`` updates land on a deterministic owner).
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, cid: CategoryId) -> int:
        """The owning shard of one category."""
        return cid % self.num_shards

    def owners(self, categories: Sequence[CategoryId]) -> List[int]:
        """Owning shards of a category set, in first-touch order, deduped.

        The first entry is the *primary* owner — the shard that serves
        the request.
        """
        seen: List[int] = []
        for cid in categories:
            shard = self.shard_of(cid)
            if shard not in seen:
                seen.append(shard)
        return seen

    def spans_shards(self, categories: Sequence[CategoryId]) -> bool:
        """True when the category set straddles more than one shard."""
        return len(self.owners(categories)) > 1

    def owned_categories(self, shard: int, num_categories: int) -> List[CategoryId]:
        """The categories shard ``shard`` owns out of ``num_categories``."""
        return [cid for cid in range(num_categories)
                if self.shard_of(cid) == shard]
