"""Regenerate (small versions of) the paper's headline figures in ASCII.

Runs the Fig. 3(a) overall comparison and the Fig. 5 searching-space
profile at a reduced scale and renders them as terminal charts, giving a
one-command visual check that the reproduction tracks the paper's shapes:
SK fastest, KPNE worst/INF, and the rise-then-shrink level profile.

Run:  python examples/paper_figures.py          (~1-2 minutes)
"""

from repro.experiments.charts import bar_chart, level_series
from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_table

# Small scale and three of the five graphs so the example stays interactive.
SMALL = dict(scale=0.15, queries=3, datasets=("CAL", "COL", "G+"))


def main() -> None:
    print("building engines and running Fig. 3(a) (KPNE/PK/SK/SK-DB)...\n")
    rows, cols = run_figure("fig3a", methods=("KPNE", "PK", "SK", "SK-DB"), **SMALL)
    print(format_table(rows, ["dataset", "method", "time_ms",
                              "examined_routes", "unfinished"],
                       "Figure 3(a) — scaled"))
    print()
    print(bar_chart(rows, ["dataset", "method"], "time_ms",
                    title="query time, log scale (paper: SK wins, KPNE worst)"))

    print("\nrunning Fig. 5 (SK searching space per level)...\n")
    rows5, cols5 = run_figure("fig5", **SMALL)
    print(format_table(rows5, cols5, "Figure 5 — scaled"))
    print()
    print(level_series(rows5,
                       title="rise-then-shrink profile (paper Fig. 5)"))


if __name__ == "__main__":
    main()
