"""Core KOSR algorithms: the paper's contribution plus every comparator.

* :mod:`repro.core.search` — KPNE, PruningKOSR (Algorithm 2) and
  StarKOSR (A*-style): one best-first search, two switches;
* :mod:`repro.core.gsp` — GSP, the dynamic-programming OSR comparator;
* :mod:`repro.core.brute` — exhaustive witness enumeration (testing oracle);
* :mod:`repro.core.engine` — :class:`KOSREngine`, the user-facing facade;
* :mod:`repro.core.variants` — no-source / no-destination / preference
  query variants (Sec. IV-C).
"""

from repro.core.query import KOSRQuery
from repro.core.stats import QueryStats, PreprocessingStats
from repro.core.gsp import gsp_osr, gsp_osr_ch
from repro.core.brute import brute_force_kosr
from repro.core.engine import KOSREngine, KOSRResult, METHODS, NN_BACKENDS
from repro.core.variants import (
    kosr_without_source,
    kosr_without_destination,
    kosr_with_preferences,
)

__all__ = [
    "KOSRQuery",
    "QueryStats",
    "PreprocessingStats",
    "gsp_osr",
    "gsp_osr_ch",
    "brute_force_kosr",
    "KOSREngine",
    "KOSRResult",
    "METHODS",
    "NN_BACKENDS",
    "kosr_without_source",
    "kosr_without_destination",
    "kosr_with_preferences",
]
