"""Seed-sweep fault-tolerance properties.

The single most important system-level property: *whatever* strike
schedule the injector produces, every scheme's architectural output must
equal the golden run. Ten seeds per scheme sweep different strike
timings, blocks, and interleavings with recoveries/rollbacks.
"""

import pytest

from repro.checkpoint import CheckpointSystem
from repro.faults.injector import Block, BlockInventory, FaultInjector
from repro.isa import golden
from repro.redundancy.tmr import TMRSystem
from repro.reunion.system import ReunionSystem
from repro.unsync.recovery import RecoveryCostModel
from repro.unsync.system import UnSyncConfig, UnSyncSystem
from repro.workloads import load_kernel

SEEDS = range(10)

#: pre-commit-only inventory so Reunion/checkpoint strikes exercise the
#: fingerprint path every time
PIPELINE_INV = BlockInventory([
    Block("rob", 80 * 72, pre_commit=True),
    Block("pipeline_regs", 4 * 4 * 128, pre_commit=True),
])

FAST_RECOVERY = UnSyncConfig(
    recovery=RecoveryCostModel(l1_restore="invalidate"))


@pytest.fixture(scope="module")
def program():
    return load_kernel("checksum")


@pytest.fixture(scope="module")
def gold(program):
    return golden.run(program)


@pytest.mark.parametrize("seed", SEEDS)
def test_unsync_output_correct_under_any_strikes(program, gold, seed):
    res = UnSyncSystem(program, unsync=FAST_RECOVERY,
                       injector=FaultInjector(1 / 700, seed=seed)).run()
    assert res.state.regs == gold.state.regs, seed
    assert res.state.mem == gold.state.mem, seed


@pytest.mark.parametrize("seed", SEEDS)
def test_reunion_output_correct_under_any_strikes(program, gold, seed):
    res = ReunionSystem(program,
                        injector=FaultInjector(1 / 700, seed=seed,
                                               inventory=PIPELINE_INV)).run()
    assert res.state.regs == gold.state.regs, seed
    assert res.state.mem == gold.state.mem, seed


@pytest.mark.parametrize("seed", SEEDS)
def test_tmr_output_correct_under_any_strikes(program, gold, seed):
    res = TMRSystem(program,
                    injector=FaultInjector(1 / 700, seed=seed)).run()
    assert res.state.regs == gold.state.regs, seed
    assert res.state.mem == gold.state.mem, seed


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_checkpoint_output_correct_under_any_strikes(program, gold, seed):
    res = CheckpointSystem(
        program,
        injector=FaultInjector(1 / 2500, seed=seed,
                               inventory=PIPELINE_INV)).run()
    assert res.state.regs == gold.state.regs, seed
    assert res.state.mem == gold.state.mem, seed


def test_some_seed_actually_triggered_recovery(program):
    """Guard against the sweep silently testing nothing."""
    total = 0
    for seed in SEEDS:
        res = UnSyncSystem(program, unsync=FAST_RECOVERY,
                           injector=FaultInjector(1 / 700, seed=seed)).run()
        total += res.metrics["unsync.eih.recoveries"]
    assert total > 5
