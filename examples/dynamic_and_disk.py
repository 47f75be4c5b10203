"""Dynamic updates and disk-resident indexes (Sec. IV-C).

Two operational concerns the paper addresses beyond raw querying:

* **category updates** — a venue opens or closes: each hub run of the
  category that the venue's ``Lin`` entries touch gets one binary insert
  (or delete), applied to a copy of the run appended to the category's
  private run arrays; ``engine.compact()`` (or the automatic compaction once the
  edits reach ``packed_inverted.COMPACT_RATIO`` = 0.25 of the category)
  rebuilds them without the replaced copies;
* **disk-resident index (SK-DB)** — when the index exceeds memory, each
  query attaches the saved index file and only its own categories'
  sections of it, and still beats the in-memory dominance-only method.

Run:  python examples/dynamic_and_disk.py
"""

import os
import random
import tempfile

from repro import KOSREngine
from repro.graph import generators


def main() -> None:
    graph = generators.col(scale=0.15)
    # The index is dynamic: category updates edit the hub runs they touch,
    # on top of the never-written base sections.
    engine = KOSREngine.build(graph, name="col")
    rng = random.Random(3)
    s, t = rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices)
    cats = [0, 1, 2]

    before = engine.query(s, t, cats, k=3, method="SK")
    print(f"top-3 costs before update: {[round(c, 2) for c in before.costs]}")

    # A new venue joins category 0 right next to the source.
    new_member = next(v for v, _ in graph.neighbors_out(s))
    il = engine.inverted[0]
    entries = il.total_entries
    engine.add_vertex_to_category(new_member, 0)
    print(f"category 0 after insert: {entries} -> {il.total_entries} "
          f"label entries (version {il.version})")
    after = engine.query(s, t, cats, k=3, method="SK")
    print(f"after adding vertex {new_member} to category 0: "
          f"{[round(c, 2) for c in after.costs]}")
    assert after.costs[0] <= before.costs[0] + 1e-9

    # And closes again; compact() drops the replaced run copies (results
    # are unchanged — it is a purely physical rebuild).
    engine.remove_vertex_from_category(new_member, 0)
    engine.compact()
    restored = engine.query(s, t, cats, k=3, method="SK")
    members = il.runs()[1]
    print(f"after removing it again:   {[round(c, 2) for c in restored.costs]} "
          f"(compacted: {len(members)} run entries for "
          f"{il.total_entries} live ones)")
    assert len(members) == il.total_entries
    assert restored.costs == before.costs

    # SK-DB: save the index as one file, run the same query from the
    # file.  (Saved after the updates above: an update detaches the file
    # until save_index runs again, so SK-DB never reads a stale one.)
    with tempfile.TemporaryDirectory() as index_dir:
        path = os.path.join(index_dir, "col.rpli")
        written = engine.save_index(path)
        print(f"\nindex saved to disk: {written / 1e6:.2f} MB, "
              f"{graph.num_categories} categories in one file")
        db = engine.query(s, t, cats, k=3, method="SK-DB")
        print(f"SK-DB costs: {[round(c, 2) for c in db.costs]} "
              f"(load {db.stats.index_load_time * 1000:.1f} ms of "
              f"{db.stats.total_time * 1000:.1f} ms total)")
        assert db.costs == before.costs


if __name__ == "__main__":
    main()
