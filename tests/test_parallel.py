"""Fan-out determinism and the per-scheme knobs the figure sweeps vary."""

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.executor import execute_trials
from repro.harness.runner import run_scheme
from repro.reunion.check_stage import ReunionParams
from repro.unsync.system import UnSyncConfig
from repro.workloads import load_benchmark
from tests.helpers import expand

SCHEMES = ("unsync", "reunion", "reptfd", "meek")


@pytest.fixture(scope="module")
def trials():
    spec = CampaignSpec(schemes=SCHEMES, workloads=("sha",), sers=(0.001,),
                        trials=2, batch=2)
    return expand(spec)


@pytest.fixture(scope="module")
def serial(trials):
    return execute_trials(trials, workers=1)


def test_empty_grid():
    assert execute_trials([]) == []


def test_serial_grid_runs_all(trials, serial):
    assert [(r.scheme, r.seed) for r in serial] == \
        [(t.scheme, t.seed) for t in trials]
    for r in serial:
        assert r.cycles > 0 and r.instructions > 0


def test_parallel_matches_serial(trials, serial):
    assert execute_trials(trials, workers=3) == serial


def test_parameterized_jobs():
    sha = load_benchmark("sha")
    slow = run_scheme("reunion", sha, params=ReunionParams(
        fingerprint_interval=30, comparison_latency=40))
    fast = run_scheme("reunion", sha)
    assert slow.cycles > fast.cycles  # FI=30/lat=40 is the Fig 5 cliff


def test_cb_entries_job():
    bzip2 = load_benchmark("bzip2")
    tiny, big = (run_scheme("unsync", bzip2,
                            unsync=UnSyncConfig(cb_entries=n))
                 for n in (4, 256))
    assert tiny.metrics["unsync.cb.full_stalls"] > \
        big.metrics["unsync.cb.full_stalls"]
