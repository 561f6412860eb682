#!/usr/bin/env python3
"""AVF accounting: which structures hold ACE state, and what that does
to the effective FIT rate.

Runs gzip on the Table I core, reports the architectural vulnerability
factor of each pipeline and memory structure, and derates the paper's
130 nm raw FIT anchor by it.

Run:  python examples/reliability_tradeoffs.py
"""

from repro.faults.avf import effective_fit, pipeline_avf_report
from repro.harness.report import format_table
from repro.redundancy import BaselineSystem
from repro.workloads import load_benchmark


def avf_accounting() -> None:
    prog = load_benchmark("gzip")
    system = BaselineSystem(prog)
    system.run()
    report = pipeline_avf_report(system.pipelines[0], system.ports[0],
                                 program=prog)
    print(format_table(
        ["structure", "bits", "AVF", "ACE bits"],
        [(r.name, r.bits, f"{r.avf:.3f}", f"{r.ace_bits:.0f}")
         for r in sorted(report, key=lambda r: -r.avf)],
        title="AVF per structure (gzip on the Table I core)"))
    raw_fit = 100_000.0  # the paper's 130 nm anchor
    print(f"   effective FIT after AVF derating: "
          f"{effective_fit(raw_fit, report):.0f} of {raw_fit:.0f} raw")


if __name__ == "__main__":
    avf_accounting()
