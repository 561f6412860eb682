"""Which scheme, fault-model and runtime values a caller can set.

Only the values a paper figure or the ablation bench varies are settable:
Reunion's fingerprint interval and comparison latency (Figure 5) and its
serializing policy (the ablation bench), UnSync's CB size (Figure 6) and
the recovery's L1-restore mode (Sec VI-C's break-even). Every other
hardware parameter is a constant on its system class or in its module,
and a test varies one by subclassing or ``monkeypatch``.

The campaign and service runtime follows the same rule: a parameter
stays when a caller outside the tests sets it (the CLI, CI, perfbench)
or a test passes a fake through it; every tuning value is a constant.
"""

import argparse
import dataclasses
import inspect

from repro import cli
from repro.campaign.engine import run_campaign
from repro.campaign.executor import execute_trials
from repro.campaign.progress import Ticker
from repro.faults import ser
from repro.faults.adversarial import AdversarialInjector
from repro.hwcost.components import CB_ENTRIES
from repro.hwcost.synthesis import synthesize
from repro.redundancy.pair import BaselineSystem
from repro.redundancy.stats import WriteBuffer
from repro.reunion.check_stage import ReunionParams
from repro.reunion.system import ReunionSystem
from repro.schemes.meek import MEEKSystem
from repro.schemes.reptfd import RepTFDSystem
from repro.service import journal
from repro.service.client import ServiceClient
from repro.service.retry import HTTP_RETRY, call_with_retry
from repro.service.scheduler import JobScheduler
from repro.service.server import CampaignService, serve
from repro.service.workers import (LeaseBroker, WaveDispatcher,
                                   WorkerClient, run_worker)
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import Histogram
from repro.unsync.comm_buffer import CommBuffer
from repro.unsync.eih import ErrorInterruptHandler
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig, UnSyncSystem

CHASSIS = ("program", "config", "injector", "name", "telemetry")

#: every constructor a scheme or the fault model exposes, and its arguments
SIGNATURES = {
    BaselineSystem: ("program", "config", "name", "telemetry"),
    UnSyncSystem: ("program", "config", "unsync", "injector", "name",
                   "telemetry"),
    ReunionSystem: ("program", "config", "params", "injector", "name",
                    "telemetry"),
    RepTFDSystem: CHASSIS,
    MEEKSystem: CHASSIS,
    AdversarialInjector: ("per_cycle_rate", "inventory", "seed",
                          "uncore_blocks"),
    ErrorInterruptHandler: (),
    WriteBuffer: (),
    CommBuffer: ("capacity_entries",),
}

#: every config dataclass a scheme constructor takes, and its fields
CONFIG_FIELDS = {
    UnSyncConfig: ("cb_entries", "recovery"),
    RecoveryCostModel: ("l1_restore",),
    ReunionParams: ("fingerprint_interval", "comparison_latency",
                    "serializing_policy"),
}


def settable_values(config_cls):
    """``Class.field`` of every leaf value of a config dataclass; a
    field holding a nested config counts through that config's fields."""
    values = set()
    for field in dataclasses.fields(config_cls):
        if field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        else:
            default = field.default
        if dataclasses.is_dataclass(default):
            values |= settable_values(type(default))
        else:
            values.add(f"{config_cls.__name__}.{field.name}")
    return values


def test_constructors_take_no_hardware_parameters():
    for cls, want in SIGNATURES.items():
        assert tuple(inspect.signature(cls).parameters) == want, cls.__name__


def test_config_dataclasses_hold_only_swept_fields():
    for cls, want in CONFIG_FIELDS.items():
        got = tuple(f.name for f in dataclasses.fields(cls))
        assert got == want, cls.__name__


def test_exactly_five_values_stay_settable():
    settable = settable_values(UnSyncConfig) | settable_values(ReunionParams)
    assert settable == {
        "UnSyncConfig.cb_entries",
        "RecoveryCostModel.l1_restore",
        "ReunionParams.fingerprint_interval",
        "ReunionParams.comparison_latency",
        "ReunionParams.serializing_policy",
    }


#: every campaign and service entry point, and its parameters
RUNTIME_SIGNATURES = {
    execute_trials: ("trials", "workers", "runner", "on_result", "report"),
    run_campaign: ("spec", "store_path", "workers", "runner",
                   "ticker_enabled", "should_stop", "executor"),
    WaveDispatcher.__call__: ("self", "trials", "workers", "runner",
                              "on_result", "report"),
    LeaseBroker: ("lease_ttl", "clock", "metrics"),
    WaveDispatcher: ("broker", "job_id", "expect_workers", "worker_wait",
                     "clock", "metrics"),
    WorkerClient: ("host", "port"),
    run_worker: ("host", "port", "name", "runner", "poll_interval",
                 "max_idle", "chaos", "stop", "clock"),
    call_with_retry: ("fn", "policy", "rng", "retry_on", "sleep", "clock"),
    journal.JobJournal.acquire_lock: ("self",),
    JobScheduler: ("data_dir", "journal", "broker", "max_concurrent",
                   "runner", "metrics", "default_workers",
                   "expect_workers", "worker_wait"),
    CampaignService: ("scheduler", "host", "port", "chaos"),
    serve: ("host", "port", "data_dir", "max_concurrent", "workers",
            "journal_path", "lease_ttl", "expect_workers", "worker_wait",
            "chaos"),
    ServiceClient.wait: ("self", "job_id", "timeout"),
    ser.SERModel.at_node: ("node_nm",),
    ser.SERModel.per_cycle: ("self",),
    Telemetry: (),
    synthesize: ("scheme", "tech"),
}

#: every flag of the runtime's CLI commands
CLI_FLAGS = {
    ("campaign", "run"): ("--store", "--json", "--workers", "--progress",
                          "--schemes", "--workloads", "--ser", "--node",
                          "--trials", "--seed-base", "--ci-halfwidth",
                          "--batch", "--fault-model", "--watchdog-cycles"),
    ("campaign", "resume"): ("--store", "--json", "--workers",
                             "--progress"),
    ("serve",): ("--host", "--port", "--data-dir", "--max-concurrent",
                 "--workers", "--journal", "--lease-ttl",
                 "--expect-workers", "--worker-wait", "--chaos"),
    ("worker",): ("--connect", "--name", "--poll-interval", "--max-idle",
                  "--chaos"),
}


def _subcommand(path):
    parser = cli.build_parser()
    for name in path:
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def test_runtime_takes_no_tuning_parameters():
    for fn, want in RUNTIME_SIGNATURES.items():
        assert tuple(inspect.signature(fn).parameters) == want, \
            fn.__qualname__


def test_runtime_cli_flags():
    for path, want in CLI_FLAGS.items():
        parser = _subcommand(path)
        got = tuple(opt for action in parser._actions
                    for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help")
        assert got == want, path


def test_runtime_constants_keep_their_values():
    """What the removed parameters defaulted to: the served path's claim
    and poll timing, the retry and lock policy, the node-rate model, the
    telemetry bounds and Table II's CB."""
    assert WaveDispatcher.poll_interval == 0.05
    assert LeaseBroker.max_requeues == 3
    assert LeaseBroker(lease_ttl=4.0).worker_ttl == 10.0
    assert LeaseBroker().register()["heartbeat_interval"] == 10.0 / 3.0
    assert WorkerClient.timeout == 5.0
    assert WorkerClient.policy is HTTP_RETRY
    assert inspect.signature(run_worker).parameters[
        "poll_interval"].default == 0.5
    assert _subcommand(("worker",)).get_default("poll_interval") == 0.5
    assert journal.STALE_LOCK_SECONDS == 300.0
    assert CampaignService.stream_interval == 1.0
    assert ServiceClient.poll_interval == 0.2
    assert Ticker.interval == 0.5
    assert cli.NODE_ACCELERATION == 1e12
    assert (ser.FREQUENCY_HZ, ser.IPC) == (2e9, 1.0)
    assert EventLog.limit == 200_000
    assert Histogram.bounds == (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000,
                                2500, 5000, 10000)
    assert CB_ENTRIES == 10
