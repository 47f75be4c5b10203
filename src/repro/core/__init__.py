"""Core KOSR algorithms: the paper's contribution plus every comparator.

* :mod:`repro.core.search` — KPNE, PruningKOSR (Algorithm 2) and
  StarKOSR (A*-style): one best-first search, two switches;
* :mod:`repro.core.gsp` — GSP, the dynamic-programming OSR comparator;
* :mod:`repro.core.brute` — exhaustive witness enumeration (testing oracle);
* :mod:`repro.core.engine` — :class:`KOSREngine`, the user-facing facade;
* :mod:`repro.core.variants` — no-source / no-destination / preference
  query variants (Sec. IV-C).

The names below import their module on first use (see
:mod:`repro._lazy`): an engine that never runs GSP never loads it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.query": ("KOSRQuery",),
    "repro.core.stats": ("QueryStats", "PreprocessingStats"),
    "repro.core.gsp": ("gsp_osr", "gsp_osr_ch"),
    "repro.core.brute": ("brute_force_kosr",),
    "repro.core.engine": ("KOSREngine", "KOSRResult"),
    "repro.service.planner": ("METHODS", "NN_BACKENDS"),
    "repro.core.variants": ("kosr_without_source", "kosr_without_destination",
                            "kosr_with_preferences"),
})
