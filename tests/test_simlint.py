"""simlint: rule battery, pragma/config mechanics, CLI gate.

Each rule gets positive + negative fixture snippets; the two historical
determinism bugs (the ``id()``-keyed baseline cache and the unsorted
EIH pop) get named regression tests proving the linter would have
caught them. The JSON report is asserted byte-identical across runs,
and ``src/repro/analysis`` must pass its own rules.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import rule_catalogue
from repro.analysis.config import LintConfig, LintConfigError, load_config
from repro.analysis.framework import LintInternalError, Rule
from repro.analysis.rules import ALL_RULES
from repro.analysis.runner import (
    EXIT_CLEAN, EXIT_FINDINGS, EXIT_INTERNAL_ERROR, lint_tree, render_json,
    run_lint_cli,
)
from repro.cli import main as cli_main
from tests.helpers import check_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(source, path="src/repro/core/mod.py", config=None):
    """Rule codes triggered by a snippet (deduplicated, sorted)."""
    findings = check_source(textwrap.dedent(source), path, ALL_RULES,
                            config=config)
    return sorted({f.code for f in findings})


# ---------------------------------------------------------------------------
# SIM1xx determinism
# ---------------------------------------------------------------------------

class TestWallClock:
    def test_time_time_flagged(self):
        assert "SIM101" in codes("""
            import time
            def latency(): return time.time()
        """)

    def test_aliased_from_import_flagged(self):
        assert "SIM101" in codes("""
            from time import perf_counter as pc
            def t(): return pc()
        """)

    def test_datetime_now_flagged(self):
        assert "SIM101" in codes("""
            from datetime import datetime
            def stamp(): return datetime.now()
        """)

    def test_injected_clock_default_not_flagged(self):
        # referencing time.monotonic as an injectable default is the
        # *clean* pattern (campaign.progress does exactly this)
        assert codes("""
            import time
            def __init__(self, clock=time.monotonic): self.clock = clock
        """) == []


class TestUnseededRandom:
    def test_module_level_random_flagged(self):
        assert "SIM102" in codes("""
            import random
            def flip(rate): return random.random() < rate
        """)

    def test_unseeded_random_instance_flagged(self):
        assert "SIM102" in codes("""
            import random
            rng = random.Random()
        """)

    def test_seeded_random_instance_ok(self):
        assert codes("""
            import random
            def make(seed): return random.Random(seed)
        """) == []

    def test_instance_method_calls_ok(self):
        assert codes("""
            def strike(rng): return rng.random() < 0.5
        """) == []

    def test_numpy_legacy_global_flagged(self):
        assert "SIM102" in codes("""
            import numpy as np
            def noise(n): return np.random.rand(n)
        """)

    def test_numpy_default_rng_needs_seed(self):
        assert "SIM102" in codes("""
            import numpy as np
            gen = np.random.default_rng()
        """)
        assert codes("""
            import numpy as np
            def gen(seed): return np.random.default_rng(seed)
        """) == []


class TestUnorderedSetIteration:
    def test_mutating_loop_over_set_attr_flagged(self):
        assert "SIM103" in codes("""
            class EIH:
                def __init__(self): self.pending = set()
                def drain(self):
                    for intr in self.pending:
                        self.delivered.append(intr)
        """)

    def test_sorted_loop_ok(self):
        assert codes("""
            class EIH:
                def __init__(self): self.pending = set()
                def drain(self):
                    for intr in sorted(self.pending):
                        self.delivered.append(intr)
        """) == []

    def test_pure_read_loop_not_flagged(self):
        assert codes("""
            def total(values):
                acc = 0
                found = {v for v in values}
                for v in found:
                    acc += v
                return acc
        """) == []

    def test_set_pop_flagged(self):
        assert "SIM103" in codes("""
            def take(ready):
                ready = set(ready)
                return ready.pop()
        """)

    def test_next_iter_flagged(self):
        assert "SIM103" in codes("""
            def first(xs):
                pending = set(xs)
                return next(iter(pending))
        """)

    def test_list_of_set_flagged(self):
        assert "SIM103" in codes("""
            def order(xs): return list({x for x in xs})
        """)

    def test_listcomp_over_set_flagged(self):
        assert "SIM103" in codes("""
            def order(xs):
                live = set(xs)
                return [x * 2 for x in live]
        """)

    def test_loop_over_list_ok(self):
        assert codes("""
            def drain(self):
                for intr in self.pending_list:
                    self.delivered.append(intr)
        """) == []


class TestIdAsKey:
    def test_id_key_flagged(self):
        assert "SIM104" in codes("""
            def memo(cache, config, value):
                cache[id(config)] = value
        """)

    def test_no_id_ok(self):
        assert codes("""
            def memo(cache, key, value):
                cache[key] = value
        """) == []


class TestDictMutatedDuringIteration:
    def test_pop_in_view_loop_flagged(self):
        assert "SIM105" in codes("""
            def prune(d):
                for k in d.keys():
                    if k < 0:
                        d.pop(k)
        """)

    def test_bare_dict_loop_mutation_flagged(self):
        assert "SIM105" in codes("""
            def prune(d):
                for k in d:
                    d[k] = 0
        """)

    def test_snapshot_ok(self):
        assert codes("""
            def prune(d):
                for k in list(d.keys()):
                    d.pop(k)
        """) == []

    def test_other_dict_ok(self):
        assert codes("""
            def copy(src, dst):
                for k in src:
                    dst[k] = src[k]
        """) == []


class TestDeepcopyOnHotState:
    SNIPPET = """
        import copy

        def snap(system):
            return copy.deepcopy(system)
    """

    def test_deepcopy_flagged_in_campaign(self):
        assert "SIM106" in codes(
            self.SNIPPET, path="src/repro/campaign/mod.py",
            config=LintConfig(root=REPO_ROOT))

    def test_deepcopy_flagged_in_checkpoint(self):
        assert "SIM106" in codes(
            self.SNIPPET, path="src/repro/checkpoint/mod.py",
            config=LintConfig(root=REPO_ROOT))

    def test_aliased_from_import_flagged(self):
        assert "SIM106" in codes("""
            from copy import deepcopy as dc

            def snap(system):
                return dc(system)
        """, path="src/repro/campaign/mod.py",
            config=LintConfig(root=REPO_ROOT))

    def test_rule_scoped_to_copy_packages(self):
        # one-shot tooling outside campaign/checkpoint may still deepcopy
        assert codes(self.SNIPPET, path="src/repro/harness/mod.py",
                     config=LintConfig(root=REPO_ROOT)) == []

    def test_shallow_copy_ok(self):
        assert codes("""
            import copy

            def snap(regs):
                return copy.copy(regs)
        """, path="src/repro/campaign/mod.py",
            config=LintConfig(root=REPO_ROOT)) == []


class TestBlockingCallInAsync:
    SERVICE = "src/repro/service/mod.py"

    def service_codes(self, source):
        return codes(source, path=self.SERVICE,
                     config=LintConfig(root=REPO_ROOT))

    def test_time_sleep_in_async_flagged(self):
        assert "SIM107" in self.service_codes("""
            import time

            async def push(self):
                time.sleep(1.0)
        """)

    def test_sync_subprocess_in_async_flagged(self):
        assert "SIM107" in self.service_codes("""
            import subprocess

            async def build(self):
                subprocess.run(["make"])
        """)

    def test_untimed_queue_get_in_async_flagged(self):
        assert "SIM107" in self.service_codes("""
            import queue
            jobs = queue.Queue()

            async def drain():
                return jobs.get()
        """)

    def test_timed_or_nowait_get_ok(self):
        assert self.service_codes("""
            import queue
            jobs = queue.Queue()

            async def drain():
                a = jobs.get(timeout=0.1)
                b = jobs.get(block=False)
                return a, b
        """) == []

    def test_asyncio_sleep_ok(self):
        assert self.service_codes("""
            import asyncio

            async def push(self):
                await asyncio.sleep(1.0)
        """) == []

    def test_sync_function_not_flagged(self):
        assert self.service_codes("""
            import time

            def poll(self):
                time.sleep(1.0)
        """) == []

    def test_nested_sync_def_not_flagged(self):
        # a helper handed to asyncio.to_thread runs off-loop; its body
        # is allowed to block
        assert self.service_codes("""
            import asyncio
            import time

            async def run(self):
                def worker():
                    time.sleep(1.0)
                await asyncio.to_thread(worker)
        """) == []

    def test_rule_scoped_to_service_package(self):
        # blocking calls in sync-only packages are not the loop's problem
        assert codes("""
            import time

            async def push(self):
                time.sleep(1.0)
        """, path="src/repro/harness/mod.py",
            config=LintConfig(root=REPO_ROOT)) == []


class TestUnboundedNetRetry:
    SERVICE = "src/repro/service/mod.py"

    def service_codes(self, source):
        return codes(source, path=self.SERVICE,
                     config=LintConfig(root=REPO_ROOT))

    def test_while_true_around_http_flagged(self):
        assert "SIM109" in self.service_codes("""
            from http.client import HTTPConnection

            def poll(host):
                while True:
                    conn = HTTPConnection(host, timeout=5.0)
                    conn.request("GET", "/healthz")
        """)

    def test_while_true_around_urlopen_flagged(self):
        assert "SIM109" in self.service_codes("""
            import urllib.request

            def fetch(url):
                while True:
                    return urllib.request.urlopen(url, timeout=5)
        """)

    def test_while_true_around_subprocess_flagged(self):
        assert "SIM109" in self.service_codes("""
            import subprocess

            def respawn(cmd):
                while True:
                    subprocess.run(cmd, timeout=30)
        """)

    def test_deadline_bounded_loop_ok(self):
        assert self.service_codes("""
            import urllib.request

            def fetch(url, clock, deadline):
                while True:
                    if clock() > deadline:
                        raise TimeoutError(url)
                    return urllib.request.urlopen(url, timeout=5)
        """) == []

    def test_attempt_counter_bounds_loop_ok(self):
        assert self.service_codes("""
            import subprocess

            def respawn(cmd, max_attempts):
                attempts = 0
                while True:
                    attempts += 1
                    if attempts > max_attempts:
                        raise RuntimeError(cmd)
                    subprocess.run(cmd, timeout=30)
        """) == []

    def test_call_with_retry_inside_loop_ok(self):
        # the sanctioned helper carries its own budget and backoff
        assert self.service_codes("""
            import urllib.request
            from repro.service.retry import call_with_retry

            def fetch(url):
                while True:
                    return call_with_retry(
                        lambda: urllib.request.urlopen(url, timeout=5))
        """) == []

    def test_conditional_loop_not_flagged(self):
        assert self.service_codes("""
            import urllib.request

            def fetch(url, alive):
                while alive():
                    urllib.request.urlopen(url, timeout=5)
        """) == []

    def test_socket_without_timeout_flagged(self):
        assert "SIM109" in self.service_codes("""
            from http.client import HTTPConnection

            def connect(host):
                return HTTPConnection(host)
        """)
        assert "SIM109" in self.service_codes("""
            import socket

            def connect(addr):
                return socket.create_connection(addr)
        """)

    def test_socket_with_timeout_ok(self):
        assert self.service_codes("""
            import socket
            from http.client import HTTPConnection

            def connect(host, addr):
                conn = HTTPConnection(host, timeout=5.0)
                sock = socket.create_connection(addr, timeout=2.0)
                return conn, sock
        """) == []

    def test_pragma_suppression(self):
        assert self.service_codes("""
            from http.client import HTTPConnection

            def connect(host):
                return HTTPConnection(host)  # simlint: off=SIM109
        """) == []

    def test_rule_scoped_to_service_package(self):
        # offline packages never hold a lease; their loops are not ours
        assert codes("""
            import urllib.request

            def fetch(url):
                while True:
                    urllib.request.urlopen(url)
        """, path="src/repro/harness/mod.py",
            config=LintConfig(root=REPO_ROOT)) == []


# ---------------------------------------------------------------------------
# SIM2xx hot path
# ---------------------------------------------------------------------------

HOT = "src/repro/unsync/mod.py"
COLD = "src/repro/harness/mod.py"


def hot_config(tmp_path=None):
    return LintConfig(root=REPO_ROOT)


class TestSlotsOnHotRecords:
    RECORD = """
        from dataclasses import dataclass
        @dataclass
        class CBEntry:
            seq: int
    """

    def test_dataclass_without_slots_flagged(self):
        assert "SIM201" in codes(self.RECORD, path=HOT,
                                 config=hot_config())

    def test_slots_kwarg_ok(self):
        assert codes("""
            from dataclasses import dataclass
            @dataclass(frozen=True, slots=True)
            class CBEntry:
                seq: int
        """, path=HOT, config=hot_config()) == []

    def test_plain_class_with_slots_ok(self):
        assert codes("""
            class CBEntry:
                __slots__ = ("seq",)
                def __init__(self, seq): self.seq = seq
        """, path=HOT, config=hot_config()) == []

    def test_plain_class_without_slots_flagged(self):
        assert "SIM201" in codes("""
            class MSHREntry:
                def __init__(self, addr): self.addr = addr
        """, path=HOT, config=hot_config())

    def test_non_record_name_skipped(self):
        assert codes("""
            from dataclasses import dataclass
            @dataclass
            class SystemConfig:
                cores: int
        """, path=HOT, config=hot_config()) == []

    def test_subclass_skipped(self):
        assert codes("""
            from dataclasses import dataclass
            @dataclass
            class SpecialEntry(BaseEntry):
                seq: int
        """, path=HOT, config=hot_config()) == []

    def test_rule_scoped_to_hot_packages(self):
        # same record outside core/mem/isa/unsync/reunion: no finding
        assert codes(self.RECORD, path=COLD, config=hot_config()) == []


class TestFormatInStepLoop:
    def test_fstring_in_step_flagged(self):
        assert "SIM202" in codes("""
            def step(self, now):
                self.note = f"cycle {now}"
        """)

    def test_fstring_in_raise_ok(self):
        assert codes("""
            def step(self, now):
                if now < 0:
                    raise ValueError(f"bad cycle {now}")
        """) == []

    def test_print_in_tick_flagged(self):
        assert "SIM202" in codes("""
            def tick(self):
                print("tick")
        """)

    def test_logging_in_step_flagged(self):
        assert "SIM202" in codes("""
            import logging
            log = logging.getLogger(__name__)
            def step(self, now):
                log.debug("cycle %d", now)
        """)

    def test_telemetry_event_ok(self):
        # null-backend pattern: no formatting happens at the call site
        assert codes("""
            def step(self, now):
                self.events.emit("cb.push", now)
        """) == []

    def test_fstring_outside_step_ok(self):
        assert codes("""
            def summarize(self):
                return f"ran {self.cycles} cycles"
        """) == []


# ---------------------------------------------------------------------------
# SIM3xx multiprocessing hygiene
# ---------------------------------------------------------------------------

class TestProcPool:
    def test_lambda_submit_flagged(self):
        assert "SIM301" in codes("""
            def fan_out(pool, trials):
                return [pool.submit(lambda t=t: t.run()) for t in trials]
        """)

    def test_nested_function_flagged(self):
        assert "SIM301" in codes("""
            def fan_out(executor, trials):
                def run(t): return t.go()
                return [executor.submit(run, t) for t in trials]
        """)

    def test_bound_method_flagged(self):
        assert "SIM301" in codes("""
            class Engine:
                def fan_out(self, pool, trials):
                    return [pool.submit(self.run, t) for t in trials]
        """)

    def test_module_level_worker_ok(self):
        assert codes("""
            def run_trial(t): return t.go()
            def fan_out(pool, trials):
                return [pool.submit(run_trial, t) for t in trials]
        """) == []

    def test_non_pool_receiver_ok(self):
        assert codes("""
            def transform(series):
                return series.map(lambda x: x + 1)
        """) == []

    def test_global_write_flagged(self):
        assert "SIM302" in codes("""
            _cache = None
            def reset():
                global _cache
                _cache = {}
        """)


# ---------------------------------------------------------------------------
# SIM4xx exception discipline
# ---------------------------------------------------------------------------

class TestExceptions:
    def test_bare_except_flagged(self):
        assert "SIM401" in codes("""
            def recover(self):
                try:
                    self.rollback()
                except:
                    pass
        """)

    def test_swallowed_broad_flagged(self):
        assert "SIM402" in codes("""
            def recover(self):
                try:
                    self.rollback()
                except Exception:
                    pass
        """)

    def test_broad_in_tuple_flagged(self):
        assert "SIM402" in codes("""
            def recover(self):
                try:
                    self.rollback()
                except (KeyError, Exception):
                    pass
        """)

    def test_classified_broad_ok(self):
        assert codes("""
            def recover(self):
                try:
                    self.rollback()
                except Exception as exc:
                    self.record_crash(exc)
        """) == []

    def test_narrow_pass_ok(self):
        assert codes("""
            def recover(self):
                try:
                    self.rollback()
                except KeyError:
                    pass
        """) == []


# ---------------------------------------------------------------------------
# historical-bug regressions (acceptance criteria)
# ---------------------------------------------------------------------------

class TestHistoricalBugs:
    def test_id_keyed_baseline_cache_is_caught(self):
        """PR 1's bug: baseline_run memoized results keyed on id(config).

        Once a config was garbage-collected its id was reused and a
        wrong baseline silently matched.
        """
        snippet = """
            _BASELINE_CACHE = {}
            def baseline_run(program, config):
                key = id(config)
                if key not in _BASELINE_CACHE:
                    _BASELINE_CACHE[key] = _run(program, config)
                return _BASELINE_CACHE[key]
        """
        assert "SIM104" in codes(snippet, path="src/repro/harness/run.py")

    def test_unsorted_eih_pop_is_caught(self):
        """PR 4's bug: EIH delivered pending interrupts in set order."""
        snippet = """
            class ErrorInterruptHandler:
                def __init__(self):
                    self.pending = set()
                def poll(self, now):
                    if self.pending:
                        return self.pending.pop()
        """
        assert "SIM103" in codes(snippet, path="src/repro/unsync/eih.py")


# ---------------------------------------------------------------------------
# pragma suppression
# ---------------------------------------------------------------------------

class TestPragmas:
    SRC = """
        def memo(cache, config, value):
            cache[id(config)] = value{pragma}
    """

    def test_same_line_off(self):
        assert codes(self.SRC.format(pragma="  # simlint: off")) == []

    def test_same_line_off_code(self):
        assert codes(self.SRC.format(pragma="  # simlint: off=SIM104")) == []

    def test_other_code_does_not_suppress(self):
        assert codes(
            self.SRC.format(pragma="  # simlint: off=SIM101")) == ["SIM104"]

    def test_line_above(self):
        assert codes("""
            def memo(cache, config, value):
                # simlint: off=SIM104 — identity cache, lives < 1 call
                cache[id(config)] = value
        """) == []

    def test_trailing_justification_prose(self):
        assert codes(self.SRC.format(
            pragma="  # simlint: off=SIM104 — deliberate, see docstring"
        )) == []

    def test_decorator_line_suppresses_class_finding(self):
        assert codes("""
            from dataclasses import dataclass
            @dataclass  # simlint: off=SIM201 — needs __dict__
            class CacheEntry:
                seq: int
        """, path=HOT, config=hot_config()) == []


# ---------------------------------------------------------------------------
# parse failures are findings, not crashes (SIM001)
# ---------------------------------------------------------------------------

class TestParseFailure:
    def test_syntax_error_is_finding(self):
        findings = check_source("def broken(:\n    pass\n", "x.py",
                                ALL_RULES)
        assert [f.code for f in findings] == ["SIM001"]
        assert "does not parse" in findings[0].message

    def test_rule_crash_is_internal_error(self):
        class Bomb(Rule):
            code = "SIM999"
            summary = "boom"

            def check(self, ctx):
                raise RuntimeError("boom")

        with pytest.raises(LintInternalError):
            check_source("x = 1\n", "x.py", [Bomb()])


# ---------------------------------------------------------------------------
# config / tree mechanics (on synthetic trees)
# ---------------------------------------------------------------------------

DIRTY = ("import time\n"
         "def latency():\n"
         "    return time.time()\n")


def make_tree(tmp_path, simlint_table, files):
    (tmp_path / "pyproject.toml").write_text(simlint_table)
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


class TestConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.paths == ("src/repro",)

    def test_per_path_ignore(self, tmp_path):
        make_tree(tmp_path, (
            "[tool.simlint]\npaths = ['pkg']\n"
            "[tool.simlint.'per-path-ignore']\n"
            "'pkg/timing/' = ['SIM101']\n"
        ), {"pkg/timing/clock.py": DIRTY, "pkg/sim/model.py": DIRTY})
        config = load_config(tmp_path)
        report = lint_tree(config)
        assert [f.path for f in report.findings] == ["pkg/sim/model.py"]

    def test_rule_code_prefix_matching(self, tmp_path):
        make_tree(tmp_path, (
            "[tool.simlint]\npaths = ['pkg']\n"
            "[tool.simlint.'per-path-ignore']\n"
            "'pkg/' = ['SIM1']\n"
        ), {"pkg/model.py": DIRTY})
        report = lint_tree(load_config(tmp_path))
        assert report.findings == []

    def test_rule_paths_scope(self, tmp_path):
        record = ("from dataclasses import dataclass\n"
                  "@dataclass\nclass HotEntry:\n    seq: int\n")
        make_tree(tmp_path, (
            "[tool.simlint]\npaths = ['pkg']\n"
            "[tool.simlint.'rule-paths']\n"
            "SIM201 = ['pkg/hot/']\n"
        ), {"pkg/hot/a.py": record, "pkg/cold/b.py": record})
        report = lint_tree(load_config(tmp_path))
        assert [f.path for f in report.findings] == ["pkg/hot/a.py"]

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\nchecks = ['SIM101']\n")
        with pytest.raises(LintConfigError):
            load_config(tmp_path)

    def test_repo_rule_scoping(self):
        """The packages each scoped rule polices in this repo, resolved
        from the config defaults plus ``pyproject.toml``."""
        config = load_config(REPO_ROOT)
        service = ("src/repro/service/",)
        assert config.rule_paths == {
            "SIM201": ("src/repro/core/", "src/repro/mem/",
                       "src/repro/isa/", "src/repro/unsync/",
                       "src/repro/reunion/", "src/repro/schemes/"),
            "SIM106": ("src/repro/campaign/", "src/repro/checkpoint/"),
            "SIM107": service,
            "SIM109": service,
            "SIM601": service,
        }
        assert config.per_path_ignore == {
            "src/repro/harness/bench.py": ("SIM101",),
            "src/repro/campaign/progress.py": ("SIM101",),
            "src/repro/service/": ("SIM101",),
        }


# ---------------------------------------------------------------------------
# CLI: exit codes, formats, determinism
# ---------------------------------------------------------------------------

def cli_tree(tmp_path, source=DIRTY):
    return make_tree(
        tmp_path,
        "[tool.simlint]\npaths = ['pkg']\n",
        {"pkg/model.py": source})


class TestCLI:
    def test_exit_findings_then_clean_after_justified_pragma(self,
                                                             tmp_path):
        root = cli_tree(tmp_path)
        assert cli_main(["lint", "--root", str(root)]) == EXIT_FINDINGS
        (root / "pkg" / "model.py").write_text(DIRTY.replace(
            "time.time()",
            "time.time()  # simlint: off=SIM101 — display-only latency"))
        assert cli_main(["lint", "--root", str(root)]) == EXIT_CLEAN

    def test_text_format(self, tmp_path, capsys):
        root = str(cli_tree(tmp_path))
        cli_main(["lint", "--root", root])
        out = capsys.readouterr().out
        assert "pkg/model.py:3" in out and "SIM101" in out

    def test_unparseable_file_is_finding_exit_1(self, tmp_path, capsys):
        root = str(cli_tree(tmp_path, source="def broken(:\n"))
        assert cli_main(["lint", "--root", root]) == EXIT_FINDINGS
        assert "SIM001" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["checks = 1", "baseline = 'b.json'",
                                     "exclude = ['pkg/model.py']"])
    def test_internal_error_exit_2(self, tmp_path, capsys, key):
        """An unknown ``[tool.simlint]`` key is simlint's failure, not a
        finding. No key accepts a finding or skips its file: a finding
        is fixed, or silenced by a pragma or ``per-path-ignore``."""
        root = make_tree(tmp_path,
                         f"[tool.simlint]\npaths = ['pkg']\n{key}\n",
                         {"pkg/model.py": DIRTY})
        assert cli_main(["lint", "--root",
                         str(root)]) == EXIT_INTERNAL_ERROR
        assert "unknown [tool.simlint] key" in capsys.readouterr().err

    def test_missing_path_exit_2(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\npaths = ['nowhere']\n")
        assert cli_main(["lint", "--root",
                         str(tmp_path)]) == EXIT_INTERNAL_ERROR

    def test_json_output_byte_identical_across_runs(self, tmp_path,
                                                    capsys):
        root = str(cli_tree(tmp_path))
        cli_main(["lint", "--root", root, "--format", "json"])
        first = capsys.readouterr().out
        cli_main(["lint", "--root", root, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["version"] == 1 and doc["counts"] == {"SIM101": 1}

    def test_rules_catalogue(self, capsys):
        assert cli_main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for entry in rule_catalogue():
            assert entry["code"] in out


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------

class TestRealTree:
    def test_repo_lints_clean(self):
        """The shipped tree has no findings (the CI gate)."""
        config = load_config(REPO_ROOT)
        report = lint_tree(config)
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings)

    def test_repo_json_report_deterministic(self):
        config = load_config(REPO_ROOT)
        first = render_json(lint_tree(config))
        second = render_json(lint_tree(config))
        assert first == second

    def test_analysis_package_passes_its_own_rules(self):
        # every rule on every file, whatever DEFAULT_RULE_PATHS scopes
        config = LintConfig(root=REPO_ROOT, rule_paths={})
        report = lint_tree(config, paths=("src/repro/analysis",))
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings)
        assert report.files >= 10  # the whole package was actually walked

    def test_run_lint_cli_on_repo(self, capsys):
        assert run_lint_cli(paths=(), fmt="text",
                            root=str(REPO_ROOT)) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# external toolchain (present in CI via the pinned `lint` extra; the
# sandbox image does not ship them, so these skip locally)
# ---------------------------------------------------------------------------

class TestExternalToolchain:
    def test_ruff_clean_on_analysis(self):
        pytest.importorskip("ruff")
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "ruff", "check",
             "src/repro/analysis", "src/repro/campaign", "src/repro/service"],
            cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_mypy_strict_on_analysis(self):
        pytest.importorskip("mypy")
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "mypy",
             "src/repro/analysis", "src/repro/campaign", "src/repro/service"],
            cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
