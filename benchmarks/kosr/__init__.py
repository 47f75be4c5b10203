"""End-to-end + per-layer benchmark of the KOSR serving stack.

One command (``python -m benchmarks.kosr.run``) drives the stack from
outside — through the JSON-lines TCP socket for the ``cli serve``
deployments and through the public Python API for the in-process fleet
— and reports the metrics ``BENCHMARK.json`` names.  See ``README.md``
in this directory.
"""
