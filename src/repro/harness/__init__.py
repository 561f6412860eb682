"""Experiment harness: one entry point per paper table/figure.

:mod:`repro.harness.runner` runs (scheme, workload) combinations with
caching of baseline runs; :mod:`repro.harness.experiments` packages the
exact sweeps behind each artifact (Table II/III, Figures 4-6, the Sec VI-C
SER analysis, the Sec VI-D ROEC accounting); :mod:`repro.harness.report`
prints them in the paper's shape so a bench run is directly comparable to
the published rows.
"""

from repro.harness.runner import run_scheme, compare_schemes
from repro.harness.experiments import fig5_fi_latency, fig6_cb_size

__all__ = [
    "run_scheme", "compare_schemes",
    "fig5_fi_latency", "fig6_cb_size",
]
