"""Tests for the statistics helpers."""

import json
import math
import os
import random
import subprocess
import sys
from statistics import NormalDist

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.harness.statistics import wilson_interval, z

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_wilson_contains_truth_typically():
    """Coverage check: ~95% of intervals from p=0.3 samples contain 0.3."""
    rng = random.Random(7)
    p, n, covered, reps = 0.3, 200, 0, 200
    for _ in range(reps):
        successes = sum(rng.random() < p for _ in range(n))
        if p in wilson_interval(successes, n):
            covered += 1
    assert covered >= 0.88 * reps  # loose lower bound on 95% coverage


def test_wilson_zero_and_all():
    iv0 = wilson_interval(0, 100)
    assert iv0.low == 0.0 and iv0.high > 0
    iv1 = wilson_interval(100, 100)
    assert iv1.high == 1.0 and iv1.low < 1.0


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)


@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=1, max_value=500))
def test_wilson_bounds_property(successes, trials):
    if successes > trials:
        successes = trials
    iv = wilson_interval(successes, trials)
    assert 0.0 <= iv.low <= iv.estimate <= iv.high <= 1.0


def test_z_is_the_two_sided_95_percent_quantile():
    # the stdlib quantile is accurate to a couple of ulp, not bit-exact
    stdlib = NormalDist().inv_cdf(0.975)
    assert abs(z - stdlib) <= 2 * math.ulp(stdlib)


def test_z_equals_scipy_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    assert z == float(stats.norm.ppf(0.975))


@pytest.mark.parametrize("kind", ["standard", "adversarial"])
def test_summary_matches_golden(capsys, kind):
    """Every printed interval is pinned to the last bit: a summary of the
    golden store must equal the committed one, floats compared with ==."""
    store = os.path.join(DATA_DIR, f"golden_unsync_reunion_{kind}.jsonl")
    assert main(["campaign", "summarize", "--store", store, "--json"]) == 0
    with open(os.path.join(DATA_DIR, f"golden_summary_{kind}.json")) as fh:
        want = json.load(fh)
    assert json.loads(capsys.readouterr().out) == want


def test_runtime_imports_no_numpy_or_scipy():
    """The CLI, the server and the worker load only the standard library."""
    code = ("import sys\n"
            "import repro, repro.cli, repro.service.server, "
            "repro.service.workers\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out.strip() == "[]"
