"""The system chassis every scheme builds on.

Every system runs one thread on one or two cores over a shared bus + L2.
:class:`~repro.redundancy.pair.DualCoreSystem` owns that common shape —
construction, the cycle loop, completion detection, result assembly,
fault intake and the bounded-retry recovery window — and exposes one
hook (``on_cycle``) plus per-core commit gates for the scheme-specific
behaviour. The unprotected baseline that Figures 4-6 normalise against
lives here too (a single core with a plain store write buffer).
"""

from repro.redundancy.pair import BaselineSystem

__all__ = ["BaselineSystem"]
