import json

import pytest

from perfbench import compare
from perfbench.compare import verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_median_worse_than_the_bound_is_a_regression():
    new = [v * 1.2 for v in BASE]  # 20% slower on a lower-is-better time
    row = verdict(BASE, new, "lower", 0.1, list(zip(BASE, new)))
    assert row["verdict"] == "regression"
    assert row["worse_by"] == pytest.approx(0.2)
    assert row["win_frac"] == 0.0


def test_direction_follows_better():
    new = [v * 1.2 for v in BASE]  # 20% more throughput
    row = verdict(BASE, new, "higher", 0.1, list(zip(BASE, new)))
    assert row["verdict"] == "gain"
    assert row["worse_by"] == pytest.approx(-0.2)


def test_winning_nine_tenths_beyond_the_base_iqr_is_a_gain():
    new = [v - 3.0 for v in BASE]
    new[0] = BASE[0] + 1.0  # one lost pair of ten still leaves 0.9
    row = verdict(BASE, new, "lower", 0.1, list(zip(BASE, new)))
    assert row["win_frac"] == pytest.approx(0.9)
    assert row["verdict"] == "gain"


def test_a_difference_inside_the_base_iqr_is_no_gain():
    new = [v - 0.2 for v in BASE]
    row = verdict(BASE, new, "lower", 0.1, list(zip(BASE, new)))
    assert row["win_frac"] == 1.0
    assert row["verdict"] == "same"


def test_base_spread_wider_than_the_bound_is_unresolved():
    base = [70.0, 130.0, 90.0, 110.0, 100.0, 80.0, 120.0, 95.0, 105.0, 100.0]
    new = [v + 1.0 for v in base]
    row = verdict(base, new, "lower", 0.1, list(zip(base, new)))
    assert row["base_spread"] > 0.1
    assert row["verdict"] == "unresolved"


def test_every_new_run_beating_every_base_run_resolves_a_wide_spread():
    base = [70.0, 130.0, 90.0, 110.0, 100.0, 80.0, 120.0, 95.0, 105.0, 100.0]
    new = [v - 70.0 for v in base[:3]]  # all below min(base) = 70
    row = verdict(base, new, "lower", 0.1, pairs=list(zip(base, new)))
    assert row["verdict"] == "gain"


def _set(path, values, seeds, load=0.1):
    runs = [{"host": {"python": "3.11.7", "cpu_count": 2,
                      "git_rev": "abc"},
             "seed": seed,
             "workloads": {"midrun": {"metrics": {"trials_per_s": v},
                                      "loadavg": [[load, 0, 0]]}}}
            for v, seed in zip(values, seeds)]
    path.write_text(json.dumps({"schema": 1, "runs": runs}))
    return str(path)


def test_main_exits_one_on_a_regression(tmp_path, capsys):
    seeds = list(range(10))
    base = _set(tmp_path / "base.json", BASE, seeds)
    slow = _set(tmp_path / "new.json", [v * 0.7 for v in BASE], seeds,
                load=3.0)
    assert compare.main([base, base]) == 0
    assert compare.main([base, slow]) == 1
    out = capsys.readouterr().out
    assert "regression" in out
    assert "new: 10 of 10 runs started with the 1-minute load above" in out
