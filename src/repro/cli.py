"""Command-line interface.

Everything the library does, runnable from a shell::

    python -m repro list                         # workloads
    python -m repro run bzip2 --scheme unsync    # one simulation
    python -m repro compare gzip                 # baseline/unsync/reunion
    python -m repro asm my_kernel.s              # assemble + golden-run
    python -m repro table1|table2|table3         # the paper's tables
    python -m repro fig4|fig5|fig6               # the paper's figures
    python -m repro ser|roec|breakeven           # Sec VI-C / VI-D
    python -m repro campaign run|resume|summarize  # Monte Carlo FI
    python -m repro serve                        # campaign-as-a-service
    python -m repro worker --connect host:port   # distributed trial worker
    python -m repro lint                         # simlint determinism gate
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from collections import defaultdict
from typing import List, Optional

from repro.harness.report import format_table, pct


def _cmd_list(args) -> int:
    from repro.workloads import ALL_BENCHMARKS, KERNELS
    rows = [(name, p.suite, f"{100 * p.serializing_pct:.1f}%",
             f"{100 * p.store_pct:.0f}%", p.ilp.name,
             f"{p.working_set_kb}KB")
            for name, p in sorted(ALL_BENCHMARKS.items())]
    print(format_table(
        ["benchmark", "suite", "serializing", "stores", "ILP", "ws"],
        rows, title="Synthetic benchmarks"))
    print()
    print(format_table(["kernel"], [(k,) for k in sorted(KERNELS)],
                       title="Hand-written kernels"))
    return 0


def _load_program(name: str):
    from repro.isa.assembler import assemble
    from repro.workloads import load_workload
    try:
        return load_workload(name)
    except KeyError:
        pass
    try:
        with open(name) as fh:
            return assemble(fh.read(), name=name)
    except FileNotFoundError:
        raise SystemExit(
            f"error: {name!r} is not a benchmark, kernel, or readable "
            f"assembly file (try `python -m repro list`)")


def _cmd_run(args) -> int:
    from repro.faults.injector import FaultInjector
    from repro.harness.runner import run_scheme
    from repro.schemes import get as get_scheme
    program = _load_program(args.workload)
    kwargs = {}
    if getattr(args, "config", None):
        from repro.core.configio import load as load_config
        kwargs["config"] = load_config(args.config)
    if args.inject > 0:
        kwargs["injector"] = FaultInjector(args.inject, seed=args.seed)
        if not get_scheme(args.scheme).protected:
            raise SystemExit(f"error: scheme {args.scheme!r} is unprotected "
                             f"and cannot take --inject (no detectors to "
                             f"fire)")
    res = run_scheme(args.scheme, program, **kwargs)
    rows = [("scheme", res.scheme), ("workload", res.name),
            ("cycles", res.cycles), ("instructions", res.instructions),
            ("IPC", f"{res.ipc:.3f}")]
    rows += [(k, f"{v:g}") for k, v in sorted(res.metrics.items())
             if v and not k.startswith("core")]
    if res.fault_events:
        rows.append(("fault events", len(res.fault_events)))
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_compare(args) -> int:
    from repro.harness.runner import compare_schemes
    program = _load_program(args.workload)
    cmp = compare_schemes(program)
    print(format_table(
        ["machine", "cycles", "IPC", "overhead"],
        [("baseline", cmp.baseline.cycles, f"{cmp.baseline.ipc:.2f}", "—"),
         ("unsync", cmp.unsync.cycles, f"{cmp.unsync.ipc:.2f}",
          pct(cmp.unsync_overhead)),
         ("reunion", cmp.reunion.cycles, f"{cmp.reunion.ipc:.2f}",
          pct(cmp.reunion_overhead))],
        title=f"{program.name}: scheme comparison"))
    print(f"UnSync over Reunion: {pct(cmp.unsync_speedup_over_reunion)}")
    return 0


def _cmd_asm(args) -> int:
    from repro.isa import golden
    program = _load_program(args.file)
    res = golden.run(program, max_instructions=args.max_instructions)
    print(f"{program.name}: {len(program)} static / "
          f"{res.instructions} dynamic instructions, "
          f"halted={res.halted}")
    hist = sorted(res.class_counts.items(), key=lambda kv: -kv[1])
    print(format_table(["class", "count", "%"],
                       [(k, v, f"{100 * v / res.instructions:.1f}")
                        for k, v in hist]))
    if "result" in program.labels:
        addr = program.labels["result"]
        print(f"result @ {addr:#x} = {res.state.read_mem(addr, 4)}")
    return 0


def _cmd_table1(args) -> int:
    from repro.core.config import SystemConfig
    desc = SystemConfig.table1().describe()
    print(format_table(["Parameter", "Configuration"], list(desc.items()),
                       title="Table I"))
    return 0


def _cmd_table2(args) -> int:
    from repro.hwcost.synthesis import table2
    rows = [[k] + v for k, v in table2().rows().items()]
    print(format_table(["Parameter", "Basic MIPS", "Reunion", "UnSync"],
                       rows, title="Table II"))
    return 0


def _cmd_table3(args) -> int:
    from repro.hwcost.die import table3
    rows = []
    for proj in table3():
        p = proj.processor
        rows.append([p.name, p.n_cores, f"{proj.reunion_die_mm2:.2f}",
                     f"{proj.unsync_die_mm2:.2f}",
                     f"{proj.difference_mm2:.2f}"])
    print(format_table(["Processor", "cores", "Reunion die (mm2)",
                        "UnSync die (mm2)", "difference"], rows,
                       title="Table III"))
    return 0


def _cmd_fig4(args) -> int:
    from repro.harness.experiments import FIG4_DEFAULT, fig4_serializing
    benches = args.benchmarks or list(FIG4_DEFAULT)
    rows = fig4_serializing(benchmarks=benches)
    print(format_table(
        ["benchmark", "serializing", "Reunion", "UnSync"],
        [(r.benchmark, f"{100 * r.serializing_pct:.2f}%",
          pct(r.reunion_overhead), pct(r.unsync_overhead)) for r in rows],
        title="Figure 4: overhead vs baseline"))
    print(f"average: Reunion "
          f"{pct(statistics.mean(r.reunion_overhead for r in rows))}, "
          f"UnSync {pct(statistics.mean(r.unsync_overhead for r in rows))}")
    return 0


def _cmd_fig5(args) -> int:
    from repro.harness.experiments import FIG5_GRID, fig5_fi_latency
    benches = args.benchmarks or ["ammp", "galgel"]
    points = fig5_fi_latency(benchmarks=benches)
    by_cfg = defaultdict(dict)
    for p in points:
        by_cfg[(p.fingerprint_interval, p.comparison_latency)][p.benchmark] = p
    rows = []
    for (fi, lat), per in sorted(by_cfg.items()):
        rows.append([fi, lat] + [
            f"-{100 * per[b].performance_decrease:.0f}%" for b in benches])
    print(format_table(["FI", "latency"] + benches, rows,
                       title="Figure 5: Reunion performance decrease"))
    return 0


def _cmd_fig6(args) -> int:
    from repro.harness.experiments import FIG6_SIZES_KB, fig6_cb_size
    benches = args.benchmarks or ["bzip2", "susan"]
    points = fig6_cb_size(benchmarks=benches)
    by_bench = defaultdict(list)
    for p in points:
        by_bench[p.benchmark].append(p)
    rows = []
    for bench, ps in by_bench.items():
        ps.sort(key=lambda p: p.cb_kb)
        rows.append([bench] + [f"{p.ipc_normalized:.3f}" for p in ps])
    print(format_table(["benchmark"] + [f"{kb}KB" for kb in FIG6_SIZES_KB],
                       rows, title="Figure 6: UnSync IPC vs baseline"))
    return 0


def _cmd_ser(args) -> int:
    from repro.harness.experiments import ser_sweep
    points = ser_sweep(benchmark=args.benchmark)
    print(format_table(
        ["SER/instruction", "UnSync IPC", "Reunion IPC"],
        [(f"{p.ser_per_instruction:.0e}", f"{p.unsync_ipc:.3f}",
          f"{p.reunion_ipc:.3f}") for p in points],
        title="Sec VI-C: IPC vs SER"))
    return 0


def _cmd_breakeven(args) -> int:
    from repro.harness.experiments import break_even_analysis
    be = break_even_analysis(benchmark=args.benchmark)
    print(format_table(["metric", "value"], [
        ("error-free advantage (cycles/instr)",
         f"{be.measured_advantage_cycles_per_instruction:.4f}"),
        ("recovery penalty, L1 copy", f"{be.recovery_penalty_cycles_copy:.0f}"),
        ("recovery penalty, L1 invalidate",
         f"{be.recovery_penalty_cycles_invalidate:.0f}"),
        ("break-even SER (copy)", f"{be.break_even_ser_copy:.2e}"),
        ("break-even SER (invalidate)",
         f"{be.break_even_ser_invalidate:.2e}"),
        ("paper break-even", f"{be.paper_break_even:.2e}"),
    ], title="Sec VI-C: break-even analysis"))
    return 0


def _cmd_roec(args) -> int:
    from repro.harness.experiments import roec_coverage
    rows = roec_coverage()
    print(format_table(
        ["architecture", "accounting", "coverage"],
        [(r.architecture, r.accounting, f"{100 * r.coverage:.1f}%")
         for r in rows],
        title="Sec VI-D: region of error coverage"))
    return 0


def _cmd_energy(args) -> int:
    from repro.harness.energy import compare_energy
    from repro.harness.runner import compare_schemes
    program = _load_program(args.workload)
    cmp = compare_schemes(program)
    results = {"baseline": cmp.baseline, "unsync": cmp.unsync,
               "reunion": cmp.reunion}
    reports = compare_energy(results)
    rows = []
    for scheme, rep in reports.items():
        res = results[scheme]
        rows.append([scheme, res.cycles,
                     f"{rep.total_energy_j * 1e6:.1f}",
                     f"{rep.energy_per_instruction_nj(res.instructions):.2f}",
                     f"{rep.edp * 1e9:.2f}"])
    print(format_table(
        ["scheme", "cycles", "energy (uJ)", "nJ/instr", "EDP (nJ*s)"],
        rows, title=f"{program.name}: energy at the 300 MHz / 65 nm "
                    f"synthesis corner"))
    uns, reu = reports["unsync"], reports["reunion"]
    print(f"UnSync saves {1 - uns.total_energy_j / reu.total_energy_j:.1%} "
          f"energy and {1 - uns.edp / reu.edp:.1%} EDP vs Reunion")
    return 0


def _cmd_report(args) -> int:
    from repro.harness.markdown import measured_report
    text = measured_report(args.sections)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness.plot import line_chart
    from repro.harness.sensitivity import elasticity, sweep
    program = _load_program(args.workload)
    points = sweep(program, args.parameter, args.values,
                   schemes=tuple(args.schemes))
    rows = [(p.value, p.scheme, p.cycles, f"{p.ipc:.2f}") for p in points]
    print(format_table([args.parameter, "scheme", "cycles", "IPC"], rows))
    series = {}
    for p in points:
        series.setdefault(p.scheme, []).append((float(p.value), p.ipc))
    print()
    print(line_chart(series, title=f"IPC vs {args.parameter} "
                                   f"({program.name})",
                     x_label=args.parameter))
    for scheme in args.schemes:
        print(f"elasticity[{scheme}] = "
              f"{elasticity(points, scheme):+.3f}")
    return 0


def _cmd_config_dump(args) -> int:
    import json
    from repro.core.config import SystemConfig
    from repro.core.configio import to_dict
    print(json.dumps(to_dict(SystemConfig.table1()), indent=2))
    return 0


def _cmd_bench(args) -> int:
    from repro.harness.bench import (
        BenchBaselineError, check_regression, load_report, run_bench,
        write_report,
    )
    try:
        results = run_bench(scenarios=args.scenarios or None,
                            quick=args.quick, repeat=args.repeat)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    rows = [(r.scenario, r.instructions, r.cycles,
             f"{r.seconds:.3f}", f"{r.instr_per_sec:,.0f}",
             f"{r.cycles_per_sec:,.0f}") for r in results]
    print(format_table(
        ["scenario", "instructions", "cycles", "seconds",
         "instr/sec", "cycles/sec"],
        rows, title="Simulator throughput"
        + (" (quick)" if args.quick else "")))
    report = write_report(results, args.out, quick=args.quick)
    print(f"wrote {args.out}")
    if args.baseline:
        try:
            baseline = load_report(args.baseline)
            failures = check_regression(report, baseline,
                                        max_regression=args.max_regression,
                                        absolute=args.absolute)
        except FileNotFoundError:
            raise SystemExit(
                f"error: no baseline report at {args.baseline!r} — generate "
                f"one with `python -m repro bench --out {args.baseline}` on "
                f"a known-good checkout, commit it, then re-run this check")
        except BenchBaselineError as exc:
            raise SystemExit(f"error: {exc}")
        mode = "absolute" if args.absolute else "relative-to-golden"
        if failures:
            for f in failures:
                print(f"REGRESSION {f}", file=sys.stderr)
            raise SystemExit(
                f"error: {len(failures)} scenario(s) regressed beyond "
                f"{100 * args.max_regression:.0f}% ({mode} check)")
        print(f"regression check vs {args.baseline}: ok ({mode}, "
              f"<= {100 * args.max_regression:.0f}% allowed)")
    return 0


def _cmd_trace_diagram(args) -> int:
    from repro.core.trace import PipelineTracer, render_timeline
    from repro.schemes import get as get_scheme
    program = _load_program(args.workload)
    system = get_scheme(args.scheme).build_system(program)
    tracer = PipelineTracer()
    # the diagram follows core 0 (a pair's first core, or the only one)
    system.pipelines[0].tracer = tracer
    system.run()
    print(render_timeline(tracer, first_seq=args.start, count=args.count))
    print(f"\nmean completed-to-retire wait: "
          f"{tracer.mean_commit_wait():.1f} cycles "
          f"(this is where redundancy gates bite)")
    return 0


def _cmd_trace_run(args) -> int:
    from repro.faults.injector import FaultInjector
    from repro.harness.runner import run_scheme
    from repro.schemes import get as get_scheme
    from repro.telemetry import Telemetry
    from repro.telemetry.chrome import validate_chrome, write_chrome
    program = _load_program(args.workload)
    telemetry = Telemetry()
    kwargs = {"telemetry": telemetry}
    if args.inject > 0:
        if not get_scheme(args.scheme).protected:
            raise SystemExit(f"error: scheme {args.scheme!r} is unprotected "
                             f"and cannot take --inject (no detectors to "
                             f"fire)")
        kwargs["injector"] = FaultInjector(args.inject, seed=args.seed)
    res = run_scheme(args.scheme, program, **kwargs)
    doc = write_chrome(telemetry.events, args.out)
    problems = validate_chrome(doc)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        raise SystemExit(f"error: {args.out} failed Chrome-trace validation "
                         f"({len(problems)} problem(s))")
    events = telemetry.events
    dropped = f", {events.dropped} dropped" if events.dropped else ""
    print(f"wrote {args.out}: {len(events)} events on "
          f"{len(events.tracks())} tracks{dropped} "
          f"(load in https://ui.perfetto.dev or chrome://tracing)")
    if args.events:
        events.write_jsonl(args.events)
        print(f"wrote {args.events}")
    if args.metrics:
        import json
        with open(args.metrics, "w") as fh:
            json.dump(telemetry.metrics.snapshot(), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics}")
    counts = {}
    for e in events:
        counts[e.name] = counts.get(e.name, 0) + 1
    rows = [("scheme", res.scheme), ("cycles", res.cycles),
            ("instructions", res.instructions), ("IPC", f"{res.ipc:.3f}")]
    rows += [(name, n) for name, n in sorted(counts.items())]
    print(format_table(["metric", "value"], rows,
                       title=f"{program.name}: traced run"))
    return 0


def _cmd_metrics_summarize(args) -> int:
    from repro.campaign import CampaignError
    from repro.telemetry.summary import summarize_path
    try:
        summary = summarize_path(args.path)
    except FileNotFoundError:
        raise SystemExit(f"error: no metrics snapshot or campaign store "
                         f"at {args.path!r}")
    except CampaignError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        import json
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if summary["kind"] == "snapshot":
        rows = [(k, f"{v:g}") for k, v in summary["counters"].items()]
        rows += [(k, f"{v:g}") for k, v in summary["gauges"].items()]
        rows += [(f"{k} (mean of {h['count']})", f"{h['mean']:.1f}")
                 for k, h in summary["histograms"].items()]
        print(format_table(["metric", "value"], rows,
                           title="Run metrics snapshot"))
    else:
        print(format_table(
            ["cell", "trials", "metrics"],
            [(cell, st["trials"], len(st["metrics"]))
             for cell, st in summary["cells"].items()],
            title=f"Campaign metrics ({summary['trials']} trials)"))
        rows = [(k, v) for k, v in summary["totals"].items()]
        print(format_table(["counter (summed)", "total"], rows))
    return 0


def _print_campaign_summary(summary) -> None:
    def iv(d):
        return f"{d['estimate']:.3f} [{d['low']:.3f}, {d['high']:.3f}]"
    rows = [[cell, st["trials"], st["strikes"], iv(st["p_sdc"]),
             iv(st.get("p_due", st["p_sdc"])),
             iv(st["p_recovered"]), f"{st['mean_recovery_cycles']:.1f}",
             f"{st['ipc']:.3f}"]
            for cell, st in summary.cells.items()]
    print(format_table(
        ["cell", "trials", "strikes", "P[SDC] 95% CI", "P[DUE] 95% CI",
         "P[recovered] 95% CI", "recovery cyc/trial", "IPC"],
        rows, title="Campaign summary"))
    t = summary.totals
    print(f"totals: {t['trials']} trials, {t['strikes']} strikes, "
          f"{t['sdc_trials']} SDC trials, {t.get('due_trials', 0)} DUE, "
          f"{t.get('hang_trials', 0)} hang, {t.get('crash_trials', 0)} "
          f"crash, {t['recovered_trials']} recovered trials")
    if getattr(summary, "hwcost", None):
        print(format_table(
            ["scheme", "cores", "area (mm^2)", "power (W)",
             "area vs unprot", "power vs unprot"],
            [[s, c["n_cores"], f"{c['area_um2'] / 1e6:.2f}",
              f"{c['power_w']:.2f}", pct(c["area_overhead"]),
              pct(c["power_overhead"])]
             for s, c in summary.hwcost.items()],
            title="Silicon cost per protected thread"))
    if summary.early_stopped:
        print("early-stopped cells: " + ", ".join(summary.early_stopped))
    if summary.progress is not None:
        p = summary.progress
        print(f"ran {p['trials_run']} trials "
              f"(+{p['resumed_trials']} resumed, "
              f"{p['early_stopped_trials']} early-stopped) in "
              f"{p['elapsed_seconds']:.1f}s — "
              f"{p['trials_per_second']:.1f} trials/s, "
              f"{p['worker_failures']} worker failures")


def _emit_campaign_summary(summary, as_json: bool) -> int:
    if as_json:
        import json
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        _print_campaign_summary(summary)
    return 0


def _sigterm_to_interrupt(signum, frame):
    # a polite kill (systemd stop, CI cancel, `kill <pid>`) should end a
    # campaign the same way Ctrl-C does: stop cleanly, keep the store
    raise KeyboardInterrupt


def _campaign_interrupted(store_arg: str) -> int:
    # every completed trial was flushed line-by-line before this point,
    # so the store is durable — tell the user how to pick it back up
    print(f"\ninterrupted — completed trials are safe in the store.\n"
          f"resume with: python -m repro campaign resume "
          f"--store {store_arg}", file=sys.stderr)
    return 130


def _cmd_campaign_run(args) -> int:
    import signal
    from repro.campaign import CampaignError, CampaignSpec, run_campaign
    sers = [float(s) for s in (args.ser or [])]
    if args.node:
        from repro.faults.ser import SERModel
        # real SERs (~1e-17/instruction) produce no strikes in simulable
        # horizons; accelerated sampling is the standard move
        sers += [SERModel.at_node(n).per_cycle(ipc=args.ipc) * args.accel
                 for n in args.node]
    try:
        if not sers:
            raise CampaignError("give at least one --ser rate or --node")
        spec = CampaignSpec(schemes=tuple(args.schemes),
                            workloads=tuple(args.workloads),
                            sers=tuple(sers), trials=args.trials,
                            seed_base=args.seed_base,
                            ci_halfwidth=args.ci_halfwidth,
                            batch=args.batch,
                            fault_model=args.fault_model,
                            watchdog_cycles=args.watchdog_cycles)
        old_term = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
        try:
            summary = run_campaign(
                spec, args.store, workers=args.workers, timeout=args.timeout,
                ticker_enabled=True if args.progress else None)
        except KeyboardInterrupt:
            return _campaign_interrupted(args.store)
        finally:
            signal.signal(signal.SIGTERM, old_term)
    except CampaignError as exc:
        raise SystemExit(f"error: {exc}")
    return _emit_campaign_summary(summary, args.json)


def _cmd_campaign_resume(args) -> int:
    import signal
    from repro.campaign import CampaignError, as_store, run_campaign
    try:
        store = as_store(args.store)
        if not store.exists():
            raise CampaignError(f"no campaign store at {args.store!r}")
        spec = store.load_spec()
        old_term = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
        try:
            summary = run_campaign(
                spec, store, workers=args.workers, timeout=args.timeout,
                ticker_enabled=True if args.progress else None)
        except KeyboardInterrupt:
            return _campaign_interrupted(args.store)
        finally:
            signal.signal(signal.SIGTERM, old_term)
    except CampaignError as exc:
        raise SystemExit(f"error: {exc}")
    return _emit_campaign_summary(summary, args.json)


def _cmd_campaign_summarize(args) -> int:
    from repro.campaign import CampaignError, summarize_store
    try:
        summary = summarize_store(args.store)
    except CampaignError as exc:
        raise SystemExit(f"error: {exc}")
    if not summary.totals.get("trials"):
        raise SystemExit(
            f"error: {args.store}: the store holds a spec but no "
            f"trials — the campaign stopped before its first batch; "
            f"continue it with `python -m repro campaign resume "
            f"--store {args.store}`")
    return _emit_campaign_summary(summary, args.json)


def _cmd_serve(args) -> int:
    from repro.service.chaos import ChaosError
    from repro.service.server import serve
    try:
        return serve(host=args.host, port=args.port,
                     data_dir=args.data_dir,
                     max_concurrent=args.max_concurrent,
                     workers=args.workers,
                     journal_path=args.journal,
                     stream_interval=args.stream_interval,
                     lease_ttl=args.lease_ttl,
                     expect_workers=args.expect_workers,
                     worker_wait=args.worker_wait, chaos=args.chaos)
    except ChaosError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_worker(args) -> int:
    import signal
    import threading
    import urllib.parse

    from repro.service.chaos import ChaosController, ChaosError
    from repro.service.client import ServiceError
    from repro.service.retry import RetryError
    from repro.service.workers import run_worker
    url = args.connect if "//" in args.connect else f"//{args.connect}"
    parsed = urllib.parse.urlsplit(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 8765
    stop = threading.Event()

    def _graceful(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)
    try:
        chaos = ChaosController.from_spec(args.chaos)
    except ChaosError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        stats = run_worker(host, port, name=args.name,
                           poll_interval=args.poll_interval,
                           max_idle=args.max_idle, chaos=chaos,
                           stop=stop)
    except (ServiceError, RetryError, OSError) as exc:
        raise SystemExit(f"error: coordinator at {host}:{port} "
                         f"unreachable: {exc}")
    print(f"worker done: {stats['leases']} leases, "
          f"{stats['trials']} trials"
          + (f", {stats['lost']} lost" if stats["lost"] else ""))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import rule_catalogue
    from repro.analysis.runner import run_lint_cli
    if args.rules:
        rows = [(r["code"], r["summary"]) for r in rule_catalogue()]
        print(format_table(["code", "summary"], rows,
                           title="simlint rule catalogue"))
        return 0
    return run_lint_cli(paths=args.paths, fmt=args.format, root=args.root,
                        changed=args.changed)


def build_parser() -> argparse.ArgumentParser:
    # every --scheme/--schemes choice list is derived from the registry,
    # so a newly registered scheme is runnable from the CLI with no
    # parser edits (and an unknown name fails argparse's own validation
    # with the available names spelled out)
    from repro.schemes import available, protected_schemes
    all_schemes = list(available())
    injectable = list(protected_schemes())

    parser = argparse.ArgumentParser(
        prog="repro",
        description="UnSync (ICPP 2011) reproduction — simulators, cost "
                    "models, and the paper's experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(fn=_cmd_list)

    p = sub.add_parser("run", help="run one workload on one scheme")
    p.add_argument("workload", help="benchmark, kernel, or .s file")
    p.add_argument("--scheme", default="unsync", choices=all_schemes)
    p.add_argument("--inject", type=float, default=0.0, metavar="RATE",
                   help="per-cycle strike rate (e.g. 1e-3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", metavar="FILE.json",
                   help="machine configuration (see `config-dump`)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("config-dump",
                       help="print the Table I machine as JSON")
    p.set_defaults(fn=_cmd_config_dump)

    p = sub.add_parser("compare", help="baseline vs UnSync vs Reunion")
    p.add_argument("workload")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("asm", help="assemble and golden-run a program")
    p.add_argument("file")
    p.add_argument("--max-instructions", type=int, default=1_000_000)
    p.set_defaults(fn=_cmd_asm)

    for name, fn in (("table1", _cmd_table1), ("table2", _cmd_table2),
                     ("table3", _cmd_table3)):
        sub.add_parser(name, help=f"print the paper's {name}").set_defaults(fn=fn)

    for name, fn in (("fig4", _cmd_fig4), ("fig5", _cmd_fig5),
                     ("fig6", _cmd_fig6)):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        p.add_argument("--benchmarks", nargs="*", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("ser", help="Sec VI-C SER sweep")
    p.add_argument("--benchmark", default="gzip")
    p.set_defaults(fn=_cmd_ser)

    p = sub.add_parser("breakeven", help="Sec VI-C break-even analysis")
    p.add_argument("--benchmark", default="bzip2")
    p.set_defaults(fn=_cmd_breakeven)

    sub.add_parser("roec", help="Sec VI-D coverage").set_defaults(fn=_cmd_roec)

    p = sub.add_parser("energy", help="energy / EDP comparison across "
                                      "schemes")
    p.add_argument("workload")
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("report", help="regenerate the measured-results "
                                      "markdown document")
    p.add_argument("--sections", nargs="*", default=None,
                   help="subset: table2 table3 fig4 roec")
    p.add_argument("--out", metavar="FILE.md", default=None)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("sweep", help="one-parameter sensitivity sweep")
    p.add_argument("workload")
    p.add_argument("parameter")
    p.add_argument("values", nargs="+", type=int)
    p.add_argument("--schemes", nargs="*",
                   default=["baseline", "unsync", "reunion"])
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="Monte Carlo fault-injection campaigns (run/resume/summarize)")
    csub = p.add_subparsers(dest="action", required=True)

    def _campaign_common(cp):
        cp.add_argument("--store", required=True, metavar="FILE.jsonl",
                        help="append-only JSONL result store")
        cp.add_argument("--json", action="store_true",
                        help="machine-readable summary instead of tables")

    def _campaign_exec(cp):
        cp.add_argument("--workers", type=int, default=None,
                        help="process-pool size (1 = serial; default: CPUs)")
        cp.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-trial timeout; timed-out trials retry once")
        cp.add_argument("--progress", action="store_true",
                        help="force the live stderr ticker (default: only "
                             "on a TTY)")

    cp = csub.add_parser("run", help="start a campaign (resumes if the "
                                     "store already holds the same spec)")
    _campaign_common(cp)
    _campaign_exec(cp)
    cp.add_argument("--schemes", nargs="+", default=["unsync", "reunion"],
                    choices=injectable,
                    help="fault-injection targets (any registered "
                         "protected scheme)")
    cp.add_argument("--workloads", nargs="+", required=True,
                    help="benchmarks and/or kernels (see `repro list`)")
    cp.add_argument("--ser", nargs="*", type=float, default=None,
                    metavar="RATE", help="per-cycle strike rates")
    cp.add_argument("--node", nargs="*", type=int, default=None,
                    metavar="NM", help="derive a rate from a technology "
                                       "node via SERModel (accelerated)")
    cp.add_argument("--ipc", type=float, default=1.0,
                    help="IPC assumed by the --node conversion")
    cp.add_argument("--accel", type=float, default=1e12,
                    help="acceleration factor applied to --node rates")
    cp.add_argument("--trials", type=int, default=50,
                    help="seeded trials per (scheme, workload, SER) cell")
    cp.add_argument("--seed-base", type=int, default=0)
    cp.add_argument("--ci-halfwidth", type=float, default=None, metavar="W",
                    help="stop a cell early once its SDC CI half-width "
                         "<= W (sequential early stopping)")
    cp.add_argument("--batch", type=int, default=25,
                    help="trials per scheduling batch / early-stop "
                         "decision boundary")
    cp.add_argument("--fault-model", default="standard",
                    choices=["standard", "adversarial"],
                    help="'adversarial' adds multi-bit clusters, "
                         "paired-core strikes, strikes during recovery, "
                         "and uncore targets (CB / EIH queue / recovery "
                         "copy)")
    cp.add_argument("--watchdog-cycles", type=int, default=None, metavar="N",
                    help="per-trial cycle budget; a tripped watchdog "
                         "records the trial as a HANG outcome")
    cp.set_defaults(fn=_cmd_campaign_run)

    cp = csub.add_parser("resume", help="continue an interrupted campaign "
                                        "from its store")
    _campaign_common(cp)
    _campaign_exec(cp)
    cp.set_defaults(fn=_cmd_campaign_resume)

    cp = csub.add_parser("summarize", help="aggregate a store without "
                                           "running anything")
    _campaign_common(cp)
    cp.set_defaults(fn=_cmd_campaign_summarize)

    p = sub.add_parser(
        "serve",
        help="campaign-as-a-service: HTTP submit/status/results API "
             "with a live SSE dashboard")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--data-dir", default="campaign-service", metavar="DIR",
                   help="job stores and the job journal live here "
                        "(default: ./campaign-service)")
    p.add_argument("--max-concurrent", type=int, default=1, metavar="N",
                   help="campaign jobs running at once; queued jobs start "
                        "oldest first (default 1)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size per job (default: CPUs)")
    p.add_argument("--journal", default=None, metavar="FILE.jsonl",
                   help="job journal path (default: DATA_DIR/"
                        "journal.jsonl); a restarted server re-adopts "
                        "its non-terminal jobs")
    p.add_argument("--stream-interval", type=float, default=1.0,
                   metavar="SEC",
                   help="seconds between dashboard SSE pushes")
    p.add_argument("--lease-ttl", type=float, default=10.0, metavar="SEC",
                   help="distributed worker lease TTL; heartbeats renew "
                        "at TTL/3, an expired lease is requeued "
                        "(default 10)")
    p.add_argument("--expect-workers", type=int, default=0, metavar="N",
                   help="wait for at least one distributed worker before "
                        "the first wave; 0 = run waves locally whenever "
                        "no worker is live (default 0)")
    p.add_argument("--worker-wait", type=float, default=10.0,
                   metavar="SEC",
                   help="how long to wait for the first worker before "
                        "falling back to local execution (default 10)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="seeded service-side fault injection, e.g. "
                        "'seed=7,http-500-rate=0.2,tear-journal-every=3' "
                        "(see repro.service.chaos)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "worker",
        help="distributed campaign worker: claim wave leases from a "
             "`repro serve` coordinator and stream results back")
    p.add_argument("--connect", required=True, metavar="URL",
                   help="coordinator address (http://host:port or "
                        "host:port)")
    p.add_argument("--name", default=None,
                   help="display name in /api/workers (default: "
                        "broker-assigned id)")
    p.add_argument("--poll-interval", type=float, default=0.5,
                   metavar="SEC",
                   help="idle delay between claim attempts (default 0.5)")
    p.add_argument("--max-idle", type=float, default=None, metavar="SEC",
                   help="exit cleanly after this long without a lease "
                        "(default: run until SIGINT/SIGTERM)")
    p.add_argument("--chaos", default=None, metavar="SPEC",
                   help="seeded worker-side fault injection, e.g. "
                        "'seed=3,kill-after=5,kill-point=mid-wave' or "
                        "'hb-drop=4' (see repro.service.chaos)")
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "lint",
        help="simlint: AST determinism & hot-path invariant checks "
             "(exit 0 clean / 1 findings / 2 internal error)")
    p.add_argument("paths", nargs="*", default=[],
                   help="files or directories (default: [tool.simlint] "
                        "paths from pyproject.toml)")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"],
                   help="report format (json/sarif are byte-stable "
                        "for CI artifacts)")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="GITREF",
                   help="diff-aware mode: run the full whole-program "
                        "analysis but report only findings in files "
                        "changed versus GITREF (default HEAD), "
                        "including untracked files")
    p.add_argument("--root", default=None, metavar="DIR",
                   help="project root holding pyproject.toml "
                        "(default: cwd)")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("bench", help="measure simulator throughput and "
                                     "write BENCH_pipeline.json")
    p.add_argument("--scenarios", nargs="*", default=None,
                   help="subset of scenarios (default: all)")
    p.add_argument("--quick", action="store_true",
                   help="small workloads, single repeat (CI smoke)")
    p.add_argument("--repeat", type=int, default=None,
                   help="timed repeats per scenario, best-of (default: "
                        "3, or 1 with --quick)")
    p.add_argument("--out", default="BENCH_pipeline.json", metavar="FILE",
                   help="report path (default: BENCH_pipeline.json)")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="committed bench report to regression-check "
                        "against; non-zero exit on failure")
    p.add_argument("--max-regression", type=float, default=0.25,
                   metavar="FRAC", help="allowed throughput drop vs the "
                                        "baseline (default 0.25)")
    p.add_argument("--absolute", action="store_true",
                   help="compare raw instr/sec instead of the "
                        "golden-normalised index (same-machine runs only)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("trace", help="pipeline diagrams and Chrome-trace "
                                     "exports (diagram/run)")
    tsub = p.add_subparsers(dest="action", required=True)

    tp = tsub.add_parser("diagram", help="ASCII pipeline diagram for a "
                                         "workload's first N instructions")
    tp.add_argument("workload")
    tp.add_argument("--scheme", default="baseline", choices=all_schemes)
    tp.add_argument("--start", type=int, default=0, metavar="SEQ")
    tp.add_argument("--count", type=int, default=24)
    tp.set_defaults(fn=_cmd_trace_diagram)

    tp = tsub.add_parser("run", help="run a workload with telemetry on and "
                                     "export a Chrome trace (Perfetto)")
    tp.add_argument("workload")
    tp.add_argument("--scheme", default="unsync", choices=all_schemes)
    tp.add_argument("--inject", type=float, default=0.0, metavar="RATE",
                    help="per-cycle strike rate (e.g. 1e-3)")
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--out", default="trace.json", metavar="FILE",
                    help="Chrome trace-event JSON (default: trace.json)")
    tp.add_argument("--events", metavar="FILE.jsonl", default=None,
                    help="also dump the raw event log as JSONL")
    tp.add_argument("--metrics", metavar="FILE.json", default=None,
                    help="also dump the metrics registry snapshot")
    tp.set_defaults(fn=_cmd_trace_run)

    p = sub.add_parser("metrics", help="inspect telemetry metric dumps "
                                       "(summarize)")
    msub = p.add_subparsers(dest="action", required=True)
    mp = msub.add_parser("summarize", help="summarise a metrics snapshot "
                                           "or a campaign store's rollups")
    mp.add_argument("path", help="snapshot JSON (from `trace run "
                                 "--metrics`) or campaign store JSONL")
    mp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    mp.set_defaults(fn=_cmd_metrics_summarize)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. `repro list | head`); exit quietly
        # instead of dumping a traceback over the consumer's output.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
