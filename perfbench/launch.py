"""Run one ``repro`` command with the tracer installed.

    PYTHONPATH=src:. python -m perfbench.launch --trace-dir DIR -- \\
        campaign run --store s.jsonl --workloads fibonacci --ser 1e-2

The launcher wraps the entry points in :data:`perfbench.tracer.TARGETS`
and then calls ``repro.cli.main``. The command's own process and every
pool worker it forks write ``DIR/proc-<pid>.json`` when they exit;
:mod:`perfbench.ledger` merges those files.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from perfbench import tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.launch")
    parser.add_argument("--trace-dir", required=True, metavar="DIR")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="repro arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] \
        else args.command
    if not command:
        parser.error("give the repro command after --")
    os.makedirs(args.trace_dir, exist_ok=True)
    rec = tracer.install(tracer.Recorder())
    # name the process by its subcommand: "campaign run", "serve", ...
    role = " ".join(a for a in command[:2] if not a.startswith("-"))
    tracer.arm(rec, args.trace_dir, role)
    from repro.cli import main as repro_main
    return repro_main(command)


if __name__ == "__main__":
    sys.exit(main())
