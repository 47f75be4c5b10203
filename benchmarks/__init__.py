"""The three CI gate benchmarks (pytest modules) and ``kosr/``, the
serving-stack benchmark.  The paper's figures are not here: they are the
``FIGURES`` table of :mod:`repro.experiments.figures`, run by
``python -m repro.cli figure`` and recorded in ``EXPERIMENTS.md``.

Scale the gates via ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_QUERIES`` (see
``repro.experiments.datasets``).
"""
