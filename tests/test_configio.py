"""Tests for config serialization."""

import json

import pytest

from repro.core.config import CoreConfig, SystemConfig
from repro.core.configio import from_dict, load, to_dict
from repro.mem.cache import WritePolicy


def test_roundtrip_table1():
    cfg = SystemConfig.table1()
    assert from_dict(to_dict(cfg)) == cfg


def test_roundtrip_custom():
    cfg = SystemConfig(core=CoreConfig(rob_entries=128, issue_width=2),
                       l1_mshrs=4)
    back = from_dict(to_dict(cfg))
    assert back.core.rob_entries == 128
    assert back.core.issue_width == 2
    assert back.l1_mshrs == 4


def test_policy_serialized_as_string():
    d = to_dict(SystemConfig.table1())
    assert d["dcache"]["policy"] == "write-through"
    assert d["l2"]["policy"] == "write-back"


def test_partial_dict_fills_defaults():
    cfg = from_dict({"core": {"rob_entries": 16}})
    assert cfg.core.rob_entries == 16
    assert cfg.core.iq_entries == CoreConfig().iq_entries
    assert cfg.l2.size_bytes == SystemConfig().l2.size_bytes


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="unknown SystemConfig"):
        from_dict({"warp_drive": True})


def test_unknown_core_key_rejected():
    with pytest.raises(ValueError, match="unknown CoreConfig"):
        from_dict({"core": {"rob_size": 80}})  # typo'd field name


def test_unknown_cache_key_rejected():
    with pytest.raises(ValueError, match="unknown CacheConfig"):
        from_dict({"dcache": {"sets": 4}})


def test_file_roundtrip(tmp_path):
    path = tmp_path / "machine.json"
    cfg = SystemConfig(core=CoreConfig(rob_entries=40))
    path.write_text(json.dumps(to_dict(cfg), indent=2))  # as config-dump
    assert load(path) == cfg
    # and it is actual JSON
    assert json.loads(path.read_text())["core"]["rob_entries"] == 40


def test_loaded_config_runs(tmp_path, sum_loop):
    from repro.isa import golden
    from repro.redundancy import BaselineSystem
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(to_dict(SystemConfig(core=CoreConfig(
        fetch_width=2, dispatch_width=2, issue_width=2, commit_width=2)))))
    res = BaselineSystem(sum_loop, config=load(path)).run()
    assert res.state.mem == golden.run(sum_loop).state.mem


def test_cli_config_dump_and_use(tmp_path, capsys):
    from repro.cli import main
    rc = main(["config-dump"])
    out = capsys.readouterr().out
    assert rc == 0
    cfg = json.loads(out)
    cfg["core"]["rob_entries"] = 24
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    rc = main(["run", "fibonacci", "--scheme", "baseline",
               "--config", str(path)])
    assert rc == 0
