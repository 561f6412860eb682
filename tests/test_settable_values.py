"""Which scheme and fault-model values a caller can set.

Only the values a paper figure or the ablation bench varies are settable:
Reunion's fingerprint interval and comparison latency (Figure 5) and its
serializing policy (the ablation bench), UnSync's CB size (Figure 6) and
the recovery's L1-restore mode (Sec VI-C's break-even). Every other
hardware parameter is a constant on its system class or in its module,
and a test varies one by subclassing or ``monkeypatch``.
"""

import dataclasses
import inspect

from repro.faults.adversarial import AdversarialInjector
from repro.redundancy.pair import BaselineSystem
from repro.redundancy.stats import WriteBuffer
from repro.reunion.check_stage import ReunionParams
from repro.reunion.system import ReunionSystem
from repro.schemes.meek import MEEKSystem
from repro.schemes.reptfd import RepTFDSystem
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
