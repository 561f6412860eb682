import json
import os
import subprocess
import sys
import types

import pytest

from perfbench import ledger, tracer
from perfbench.tracer import Target
from perfbench.workloads import child_env, repro_command


def _current(owner, name):
    if isinstance(owner, dict):
        return owner[name]
    return vars(owner)[name] if isinstance(owner, type) \
        else getattr(owner, name)


def _attributes():
    out = []
    for target in tracer.TARGETS:
        resolved = tracer.resolve(target)
        assert resolved is not None, f"{target.module}.{target.attr} is gone"
        owner, names = resolved
        out += [(owner, name, _current(owner, name)) for name in names]
    return out


def test_install_and_uninstall_restore_every_attribute():
    before = _attributes()
    rec = tracer.install(tracer.Recorder())
    try:
        assert rec.missing == []
        assert all(_current(o, n) is not f for o, n, f in before)
    finally:
        tracer.uninstall(rec)
    assert all(_current(o, n) is f for o, n, f in before)


def test_traced_store_is_byte_identical_and_replay_stays_differential(
        tmp_path):
    argv = ["campaign", "run", "--schemes", "unsync", "--workloads",
            "fibonacci", "--ser", "1e-2", "--trials", "4", "--workers", "2"]
    trace_dir = str(tmp_path / "trace")
    for name, traced in (("plain", None), ("traced", trace_dir)):
        store = str(tmp_path / f"{name}.jsonl")
        subprocess.run(repro_command(argv + ["--store", store], traced),
                       cwd=tmp_path, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
    plain = (tmp_path / "plain.jsonl").read_bytes()
    assert plain == (tmp_path / "traced.jsonl").read_bytes()
    doc = ledger.build(trace_dir, "tiny", {"workers": 2})
    assert doc["metrics"]["campaign.prefix.builds"] > 0
    assert doc["metrics"]["campaign.trial.count"] == 4
    roles = sorted(p["role"] for p in doc["processes"])
    assert roles == ["campaign pool-worker"] * 2 + ["campaign run"]


class Layered:
    """Calls ``inner`` twice; a fake clock advances 10 + 7 + 5 + 7 ns."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock[0] += 10
        self.inner()
        self.clock[0] += 5
        self.inner()
        return "done"

    def inner(self):
        self.clock[0] += 7


@pytest.fixture
def fake_layers(monkeypatch):
    clock = [0]
    monkeypatch.setattr(tracer.time, "perf_counter_ns", lambda: clock[0])
    module = types.ModuleType("perfbench_fake_layers")
    module.Layered = Layered
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (Target("upper", module.__name__, "Layered.outer",
                      span="outer"),
               Target("lower", module.__name__, "Layered.inner",
                      span="inner"))
    rec = tracer.install(tracer.Recorder(), targets)
    yield rec, clock
    tracer.uninstall(rec)


def test_self_time_is_total_minus_wrapped_callees(fake_layers, tmp_path):
    rec, clock = fake_layers
    assert Layered(clock).outer() == "done"
    rows = {row[0]: row[1:] for row in rec.stats.values()}
    assert rows["upper"] == [1, 29, 14]  # calls, total ns, child ns
    assert rows["lower"] == [2, 14, 0]
    outer = [s for s in rec.spans if s[0] == "outer"][0]
    inner = [s for s in rec.spans if s[0] == "inner"]
    assert (outer[2], outer[3], outer[5]) == (0, 29, 0)
    assert [(s[2], s[3], s[5]) for s in inner] == [
        (10, 17, outer[4]), (22, 29, outer[4])]
    rec.dump(str(tmp_path / "proc-1.json"))
    layers = ledger.build(str(tmp_path), "fake", {})["layers"]
    assert layers["upper"]["self_s"] == pytest.approx(15e-9)
    assert layers["lower"]["self_s"] == pytest.approx(14e-9)
    assert layers["upper"]["self_frac"] == pytest.approx(15 / 29)


def test_fork_reset_zeroes_rows_the_wrappers_still_update(fake_layers):
    rec, clock = fake_layers
    Layered(clock).outer()
    rec.reset_after_fork()
    assert all(row[1:] == [0, 0, 0] for row in rec.stats.values())
    assert rec.spans == []
    Layered(clock).inner()
    assert {row[0]: row[1] for row in rec.stats.values()} == {
        "upper": 0, "lower": 1}


def test_write_once_per_process(tmp_path):
    rec = tracer.Recorder()
    rec.write_once(str(tmp_path))
    path = tmp_path / f"proc-{os.getpid()}.json"
    path.write_text("{}")
    rec.write_once(str(tmp_path))  # a second exit hook must not rewrite
    assert json.loads(path.read_text()) == {}
