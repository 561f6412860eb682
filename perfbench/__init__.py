"""End-to-end benchmark of the ``repro`` CLI with a traced per-layer ledger.

``python3 perfbench/run.py`` (or ``python -m perfbench.run``) drives
``repro campaign run``, ``repro serve`` and ``repro worker`` as
subprocesses, times them from outside, checks their outputs, and prints
every metric named in the repository's ``BENCHMARK.json``. See
``perfbench/README.md``.
"""
