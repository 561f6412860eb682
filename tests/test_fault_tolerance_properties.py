"""Seed-sweep fault-tolerance properties.

The single most important system-level property: *whatever* strike
schedule the injector produces, every registered protected scheme's
architectural output must equal the golden run. Ten seeds per scheme
sweep different strike timings, blocks, and interleavings with
recoveries/rollbacks.
"""

import pytest

from repro.faults.injector import Block, BlockInventory, FaultInjector
from repro.isa import golden
from repro.schemes import get, protected_schemes
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig, UnSyncSystem
from repro.workloads import load_workload

SEEDS = range(10)

#: pre-commit-only inventory: every strike lands in state each scheme
#: must catch before commit (UnSync's detectors, Reunion's fingerprint,
#: RepTFD's replay compare, MEEK's check queue)
PIPELINE_INV = BlockInventory([
    Block("rob", 80 * 72, pre_commit=True),
    Block("pipeline_regs", 4 * 4 * 128, pre_commit=True),
])

FAST_RECOVERY = UnSyncConfig(
    recovery=RecoveryCostModel(l1_restore="invalidate"))


@pytest.fixture(scope="module")
def program():
    return load_workload("checksum")


@pytest.fixture(scope="module")
def gold(program):
    return golden.run(program)


@pytest.mark.parametrize("seed", SEEDS)
def test_unsync_output_correct_under_any_strikes(program, gold, seed):
    res = UnSyncSystem(program, unsync=FAST_RECOVERY,
                       injector=FaultInjector(1 / 700, seed=seed)).run()
    assert res.state.regs == gold.state.regs, seed
    assert res.state.mem == gold.state.mem, seed


def _run_struck(name, program, seed):
    injector = FaultInjector(1 / 700, seed=seed, inventory=PIPELINE_INV)
    return get(name).build_system(program, injector=injector).run()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", protected_schemes())
def test_protected_scheme_output_correct_under_any_strikes(program, gold,
                                                           scheme, seed):
    res = _run_struck(scheme, program, seed)
    assert res.state.regs == gold.state.regs, (scheme, seed)
    assert res.state.mem == gold.state.mem, (scheme, seed)


@pytest.mark.parametrize("scheme", protected_schemes())
def test_protected_sweep_exercises_recovery(program, scheme):
    """Guard against a scheme's sweep silently testing nothing."""
    metric = get(scheme).recovery_metric
    total = sum(_run_struck(scheme, program, seed).metrics[metric]
                for seed in SEEDS)
    assert total > 0, scheme


def test_some_seed_actually_triggered_recovery(program):
    """Guard against the sweep silently testing nothing."""
    total = 0
    for seed in SEEDS:
        res = UnSyncSystem(program, unsync=FAST_RECOVERY,
                           injector=FaultInjector(1 / 700, seed=seed)).run()
        total += res.metrics["unsync.eih.recoveries"]
    assert total > 5
