"""Behavioural models of the paper's hardware error detectors.

UnSync's block-by-block choice (Sec III-B-1):

* **1-bit parity** on storage with >=1 cycle between write and read
  (L1 data, register file, LSQ, TLB, queues). Detects any odd number of
  flipped bits per protected word; misses even-weight multi-bit upsets.
  Costs <1% area/power; verification fits in the existing access cycle.
* **DMR** (dual-mode redundancy, detection only) on per-cycle elements
  (PC, pipeline registers) where parity's generate/verify latency is
  unacceptable. Detects any single-copy corruption; ~6% power.
* **SECDED** ECC on the shared L2 (both architectures) and on Reunion's
  L1: corrects 1-bit, detects 2-bit errors; ~22% cache-area overhead and
  multi-cycle codec latency.

These models answer one question for the simulators — *given k bits
flipped in a protected word, does the detector fire / correct?* — plus the
detection latency to charge. Real bit-level codecs are unnecessary: the
injector controls k exactly. What the detectors cost in area and power is
:mod:`repro.hwcost`'s business (Table II), not theirs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DetectionResult:
    detected: bool
    corrected: bool
    latency_cycles: int


class Detector:
    """Interface: adjudicate a k-bit upset in one protected word."""

    name = "detector"
    #: cycles from corrupted read to the error interrupt
    detection_latency = 1

    def check(self, flipped_bits: int) -> DetectionResult:
        raise NotImplementedError


class NoDetector(Detector):
    """Unprotected block: every upset sails through."""

    name = "none"
    detection_latency = 0

    def check(self, flipped_bits: int) -> DetectionResult:
        return DetectionResult(detected=False, corrected=False,
                               latency_cycles=0)


class ParityDetector(Detector):
    """1-bit parity per protected word.

    The parity bit is generated at write and verified at read, so the
    detection fires on the first *read* of the corrupted word — the
    simulators charge `detection_latency` from that read.
    """

    name = "parity"
    detection_latency = 1

    def check(self, flipped_bits: int) -> DetectionResult:
        if flipped_bits <= 0:
            return DetectionResult(False, False, 0)
        detected = flipped_bits % 2 == 1
        return DetectionResult(detected=detected, corrected=False,
                               latency_cycles=self.detection_latency)


class DMRDetector(Detector):
    """Duplicated sequential element with a comparator.

    Fires on any mismatch between the two copies — i.e. on every upset
    that flips at least one bit of one copy (the chance of the *same*
    multi-bit pattern striking both copies in one event is negligible and
    modelled as zero). Detection is same-cycle.
    """

    name = "dmr"
    detection_latency = 0

    def check(self, flipped_bits: int) -> DetectionResult:
        detected = flipped_bits > 0
        return DetectionResult(detected=detected, corrected=False,
                               latency_cycles=self.detection_latency)


class SECDEDDetector(Detector):
    """Single-error-correct / double-error-detect ECC.

    Corrects 1 flipped bit transparently; detects (without correcting) 2;
    3+ flips of one word may alias — modelled as undetected, the
    conservative choice for coverage accounting.
    """

    name = "secded"
    detection_latency = 2   # codec needs more than one cycle (Sec III-B-1)

    def check(self, flipped_bits: int) -> DetectionResult:
        if flipped_bits <= 0:
            return DetectionResult(False, False, 0)
        if flipped_bits == 1:
            return DetectionResult(detected=True, corrected=True,
                                   latency_cycles=self.detection_latency)
        if flipped_bits == 2:
            return DetectionResult(detected=True, corrected=False,
                                   latency_cycles=self.detection_latency)
        return DetectionResult(detected=False, corrected=False,
                               latency_cycles=0)
