"""Whole-program simlint v2: symbols, call graph, taint, races.

Covers the project-analysis layer end to end: golden call-graph edges
over a synthetic package (cycle, re-export, aliased import), the
inter-procedural taint engine (every kind, sanitizers, param flow,
chain rendering), the committed historical-bug fixtures under
``tests/data/taint_fixtures``, the service-tier race lint's domain
inference, statement-span pragma anchoring, byte-stable SARIF, and
diff-aware ``--changed`` mode.
"""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    LintConfig,
    check_source,
    lint_tree,
)
from repro.analysis.callgraph import build_project, postorder
from repro.analysis.findings import Finding
from repro.analysis.framework import parse_context
from repro.analysis.runner import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL_ERROR,
    render_sarif,
    run_lint_cli,
)
from repro.analysis.symbols import module_name
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = "tests/data/taint_fixtures"


def contexts_of(files):
    out = {}
    for path, source in files.items():
        parsed = parse_context(textwrap.dedent(source), path)
        assert not isinstance(parsed, Finding), parsed
        out[path] = parsed
    return out


def project_of(files):
    return build_project(contexts_of(files))


def codes(source, path="src/repro/core/mod.py"):
    findings = check_source(textwrap.dedent(source), path, ALL_RULES)
    return sorted({f.code for f in findings})


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

class TestSymbols:
    def test_module_name(self):
        assert module_name("src/repro/core/pipeline.py") == \
            "repro.core.pipeline"
        assert module_name("src/repro/unsync/__init__.py") == \
            "repro.unsync"
        assert module_name("tests/test_x.py") == "tests.test_x"

    def test_alias_chain_canonicalizes_through_reexport(self):
        project = project_of({
            "src/pkg/impl.py": """
                def engine():
                    return 1
            """,
            "src/pkg/__init__.py": """
                from pkg.impl import engine as run
            """,
            "src/pkg/app.py": """
                from pkg import run as go
                def main():
                    return go()
            """,
        })
        table = project.table
        assert table.canonicalize("pkg.app.go") == "pkg.impl.engine"
        assert ("pkg.app.main", "pkg.impl.engine") in \
            project.graph.edges()

    def test_method_resolution_follows_project_bases(self):
        project = project_of({
            "src/pkg/base.py": """
                class Base:
                    def step(self):
                        return 0
            """,
            "src/pkg/sub.py": """
                from pkg.base import Base
                class Sub(Base):
                    def run(self):
                        return self.step()
            """,
        })
        fi = project.table.resolve_method("pkg.sub.Sub", "step")
        assert fi is not None and fi.symbol == "pkg.base.Base.step"
        assert ("pkg.sub.Sub.run", "pkg.base.Base.step") in \
            project.graph.edges()


# ---------------------------------------------------------------------------
# call graph: golden edges over a synthetic package
# ---------------------------------------------------------------------------

SYNTH = {
    "src/pkg/__init__.py": """
        from pkg.core import engine as run
    """,
    "src/pkg/util.py": """
        def helper():
            return leaf()
        def leaf():
            return 1
    """,
    "src/pkg/core.py": """
        from pkg import util as u
        def engine():
            return u.helper() + recurse(1)
        def recurse(n):
            if n:
                return engine()
            return 0
    """,
    "src/pkg/app.py": """
        from pkg import run
        def main():
            return run()
    """,
}

GOLDEN_EDGES = [
    ("pkg.app.main", "pkg.core.engine"),       # via aliased re-export
    ("pkg.core.engine", "pkg.core.recurse"),   # bare local name
    ("pkg.core.engine", "pkg.util.helper"),    # module-alias import
    ("pkg.core.recurse", "pkg.core.engine"),   # cycle
    ("pkg.util.helper", "pkg.util.leaf"),
]


class TestCallGraph:
    def test_golden_edges(self):
        assert project_of(SYNTH).graph.edges() == GOLDEN_EDGES

    def test_postorder_total_and_deterministic(self):
        project = project_of(SYNTH)
        order = postorder(project.graph)
        assert sorted(order) == sorted(project.graph.sites)
        assert order == postorder(project_of(SYNTH).graph)
        # acyclic region: callee strictly before caller
        assert order.index("pkg.util.leaf") < \
            order.index("pkg.util.helper")

    def test_external_calls_recorded(self):
        project = project_of({
            "src/pkg/t.py": """
                import time
                def now():
                    return time.monotonic()
            """,
        })
        assert project.graph.external_calls("pkg.t.now") == \
            ["time.monotonic"]


# ---------------------------------------------------------------------------
# SIM5xx: the taint engine, one-file flows
# ---------------------------------------------------------------------------

class TestTaintKinds:
    def test_wallclock_through_helper_to_store(self):
        assert "SIM501" in codes("""
            import time
            def stamp():
                return time.time()
            def log(store):
                store.append_trial({"wall": stamp()})
        """)

    def test_rng_through_helper_to_store(self):
        assert "SIM502" in codes("""
            import random
            def jitter():
                return random.random()
            def log(store):
                store.append_trial({"j": jitter()})
        """)

    def test_set_order_pop_to_emit(self):
        assert "SIM503" in codes("""
            def pick(pending: set):
                return pending.pop()
            def drain(events, pending: set):
                events.emit("victim", core=pick(pending))
        """)

    def test_id_through_helper_to_mapping_key(self):
        assert "SIM504" in codes("""
            def key_of(config):
                return id(config)
            def put(cache, config, value):
                cache[key_of(config)] = value
        """)

    def test_env_through_helper_to_store(self):
        assert "SIM505" in codes("""
            import os
            def lookup():
                return os.environ["REPRO_SEED"]
            def log(store):
                store.append_trial({"seed": lookup()})
        """)

    def test_wallclock_into_rng_seed(self):
        assert "SIM501" in codes("""
            import random
            import time
            def clock():
                return time.time()
            def make_rng():
                return random.Random(clock())
        """)

    def test_seed_method_sink(self):
        assert "SIM501" in codes("""
            import time
            def clock():
                return time.time()
            def reseed(rng):
                rng.seed(clock())
        """)


class TestTaintPrecision:
    def test_sorted_sanitizes_set_order(self):
        assert "SIM503" not in codes("""
            def drain(events, pending: set):
                events.emit("victims", cores=sorted(pending))
        """)

    def test_list_of_set_is_tainted_sorted_is_not(self):
        src = """
            def drain(events, pending: set):
                events.emit("victims", cores={expr})
        """
        assert "SIM503" in codes(src.format(expr="list(pending)"))
        assert "SIM503" not in codes(src.format(expr="sorted(pending)"))

    def test_seeded_random_is_clean(self):
        assert codes("""
            import random
            def make_rng(seed):
                return random.Random(seed)
        """) == []

    def test_untainted_store_append_is_clean(self):
        assert codes("""
            def log(store, outcome):
                store.append_trial({"outcome": outcome})
        """) == []

    def test_direct_id_key_is_sim104_not_sim504(self):
        # the single-line shape belongs to the per-file rule; the taint
        # engine must not double-report it
        found = codes("""
            def put(cache, config, value):
                cache[id(config)] = value
        """)
        assert "SIM104" in found and "SIM504" not in found

    def test_pragma_suppresses_taint_finding_at_sink(self):
        assert "SIM501" not in codes("""
            import time
            def stamp():
                return time.time()
            def log(store):
                # simlint: off=SIM501 — harness-side wall timing field
                store.append_trial({"wall": stamp()})
        """)

    def test_param_passthrough_two_hops(self):
        assert "SIM501" in codes("""
            import time
            def stamp():
                return time.time()
            def shift(t):
                return t + 1.0
            def log(store):
                store.append_trial({"wall": shift(stamp())})
        """)


class TestTaintChainRendering:
    def test_chain_snapshot(self):
        path = "src/repro/core/mod.py"
        source = textwrap.dedent("""\
            import time
            def stamp():
                return time.time()
            def log(store):
                store.append_trial({"wall": stamp()})
        """)
        findings = [f for f in check_source(source, path, ALL_RULES)
                    if f.code == "SIM501"]
        assert len(findings) == 1
        assert findings[0].message == (
            "wall-clock value reaches result-store append: "
            "time.time() [src/repro/core/mod.py:3] -> "
            "stamp() [src/repro/core/mod.py:5] -> "
            "append_trial(...) [src/repro/core/mod.py:5]")


# ---------------------------------------------------------------------------
# the committed historical-bug fixtures
# ---------------------------------------------------------------------------

def lint_fixtures():
    config = LintConfig(root=REPO_ROOT, paths=(FIXTURE_DIR,),
                        rule_paths={})
    return lint_tree(config)


class TestHistoricalBugFixtures:
    def test_id_cache_bug_redetected_through_hop(self):
        hits = {(f.path, f.line, f.code)
                for f in lint_fixtures().findings}
        assert (f"{FIXTURE_DIR}/id_cache.py", 21, "SIM504") in hits
        assert (f"{FIXTURE_DIR}/id_cache.py", 24, "SIM504") not in hits

    def test_eih_pop_bug_redetected_through_hop(self):
        hits = {(f.path, f.line, f.code)
                for f in lint_fixtures().findings}
        assert (f"{FIXTURE_DIR}/eih_pop.py", 24, "SIM503") in hits

    def test_cross_file_chain(self):
        hits = {(f.path, f.code) for f in lint_fixtures().findings}
        assert (f"{FIXTURE_DIR}/flow_sink.py", "SIM501") in hits

    def test_fixture_chain_snapshots(self):
        rendered = sorted(
            f.render() for f in lint_fixtures().findings
            if f.code in ("SIM503", "SIM504"))
        assert rendered == [
            f"{FIXTURE_DIR}/eih_pop.py:24:13: SIM503 "
            "unordered-collection-order value reaches telemetry event "
            f"payload: set.pop() [{FIXTURE_DIR}/eih_pop.py:14] -> "
            f"_pick() [{FIXTURE_DIR}/eih_pop.py:23] -> "
            f"emit(...) [{FIXTURE_DIR}/eih_pop.py:24]",
            f"{FIXTURE_DIR}/id_cache.py:21:9: SIM504 "
            "allocation/identity-dependent value reaches mapping-key "
            f"write: id() [{FIXTURE_DIR}/id_cache.py:13] -> "
            f"_key() [{FIXTURE_DIR}/id_cache.py:21] -> "
            f"[...]= [{FIXTURE_DIR}/id_cache.py:21]",
        ]


# ---------------------------------------------------------------------------
# SIM601: service-tier shared-state races
# ---------------------------------------------------------------------------

class TestSharedStateRace:
    def test_to_thread_vs_async_write_unlocked_flagged(self):
        assert "SIM601" in codes("""
            import asyncio
            class Sched:
                def __init__(self):
                    self.jobs = {}
                async def run(self, job):
                    await asyncio.to_thread(self.work, job)
                    self.jobs[job] = "done"
                def work(self, job):
                    self.jobs[job] = "running"
        """)

    def test_common_lock_is_clean(self):
        assert "SIM601" not in codes("""
            import asyncio
            import threading
            class Sched:
                def __init__(self):
                    self.jobs = {}
                    self._lock = threading.Lock()
                async def run(self, job):
                    await asyncio.to_thread(self.work, job)
                    with self._lock:
                        self.jobs[job] = "done"
                def work(self, job):
                    with self._lock:
                        self.jobs[job] = "running"
        """)

    def test_single_domain_is_clean(self):
        assert "SIM601" not in codes("""
            class Sched:
                def __init__(self):
                    self.jobs = {}
                async def run(self, job):
                    self.jobs[job] = "done"
                async def drop(self, job):
                    self.jobs.pop(job, None)
        """)

    def test_init_writes_never_count(self):
        assert "SIM601" not in codes("""
            import asyncio
            class Sched:
                def __init__(self):
                    self.jobs = {}
                async def run(self, job):
                    await asyncio.to_thread(self.noop, job)
                    self.jobs[job] = "done"
                def noop(self, job):
                    return job
        """)

    def test_observer_callback_alias_seeds_thread_domain(self):
        # the scheduler's real shape: partial(self._observe, ...) bound
        # to a local, passed as an on_* observer kwarg
        assert "SIM601" in codes("""
            from functools import partial
            class Broker:
                def __init__(self):
                    self.seen = []
                async def pump(self, store_cls, path, job):
                    cb = partial(self._observe, job)
                    store = store_cls(path, on_append=cb)
                    self.seen.clear()
                def _observe(self, job, rec):
                    self.seen.append(rec)
        """)

    def test_signal_handler_domain_flagged(self):
        assert "SIM601" in codes("""
            import signal
            class Svc:
                def __init__(self):
                    self.draining = False
                def install(self):
                    signal.signal(signal.SIGTERM, self._on_term)
                def _on_term(self, signum, frame):
                    self.draining = True
                async def loop(self):
                    self.draining = False
        """)

    def test_domain_propagates_through_helper_call(self):
        # work() runs in a thread and delegates the write to a helper;
        # the helper inherits the thread domain through the call graph
        assert "SIM601" in codes("""
            import asyncio
            class Sched:
                def __init__(self):
                    self.jobs = {}
                async def run(self, job):
                    await asyncio.to_thread(self.work, job)
                    self.jobs[job] = "done"
                def work(self, job):
                    self._mark(job)
                def _mark(self, job):
                    self.jobs[job] = "running"
        """)

    def test_message_names_domains_and_sites(self):
        findings = [
            f for f in check_source(textwrap.dedent("""
                import asyncio
                class Sched:
                    def __init__(self):
                        self.jobs = {}
                    async def run(self, job):
                        await asyncio.to_thread(self.work, job)
                        self.jobs[job] = "done"
                    def work(self, job):
                        self.jobs[job] = "running"
            """), "src/repro/service/sched.py", ALL_RULES)
            if f.code == "SIM601"]
        assert len(findings) == 1
        msg = findings[0].message
        assert "self.jobs of Sched" in msg
        assert "async" in msg and "thread" in msg
        assert "without a common lock" in msg

    def test_real_service_tier_is_clean(self):
        config = LintConfig(root=REPO_ROOT)
        report = lint_tree(config)
        races = [f for f in report.findings if f.code == "SIM601"]
        assert races == [], "\n".join(f.render() for f in races)


# ---------------------------------------------------------------------------
# pragma anchoring: decorated defs and multi-line statements
# ---------------------------------------------------------------------------

class TestStatementSpanPragmas:
    def test_pragma_above_decorators_suppresses_def_line_finding(self):
        src = """
            from dataclasses import dataclass
            import functools
            {pragma}
            @dataclass
            @functools.total_ordering
            class CacheEntry:
                seq: int
        """
        dirty = textwrap.dedent(src.format(pragma="# a comment"))
        clean = textwrap.dedent(
            src.format(pragma="# simlint: off=SIM201"))
        path = "src/repro/core/hot.py"
        assert "SIM201" in {f.code for f in
                            check_source(dirty, path, ALL_RULES)}
        assert "SIM201" not in {f.code for f in
                                check_source(clean, path, ALL_RULES)}

    def test_pragma_above_multiline_statement(self):
        assert "SIM101" not in codes("""
            import time
            # simlint: off=SIM101 — harness-side timing record
            record = {
                "outcome": "sdc",
                "wall": time.time(),
            }
        """)

    def test_pragma_on_multiline_closing_line(self):
        assert "SIM101" not in codes("""
            import time
            record = {
                "wall": time.time(),
            }  # simlint: off=SIM101
        """)

    def test_pragma_above_backslash_continuation(self):
        assert "SIM101" not in codes("""
            import time
            # simlint: off=SIM101
            t = 1.0 + \\
                time.time()
        """)

    def test_compound_header_pragma_does_not_blanket_body(self):
        assert "SIM101" in codes("""
            import time
            # simlint: off=SIM101
            for _ in range(3):
                t = time.time()
        """)


# ---------------------------------------------------------------------------
# synthetic trees for the SARIF and --changed tests
# ---------------------------------------------------------------------------

TWO_CLOCKS = ("import time\n"
              "def a():\n"
              "    return time.time()\n"
              "def b():\n"
              "    return time.time()\n")

ONE_CLOCK = ("import time\n"
             "def a():\n"
             "    return time.time()\n")


def make_tree(tmp_path, files):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.simlint]\npaths = ['pkg']\n")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------

class TestSarif:
    def test_cli_sarif_byte_identical_across_runs(self, tmp_path,
                                                  capsys):
        root = str(make_tree(tmp_path, {"pkg/m.py": TWO_CLOCKS}))
        cli_main(["lint", "--root", root, "--format", "sarif"])
        first = capsys.readouterr().out
        cli_main(["lint", "--root", root, "--format", "sarif"])
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "simlint"
        assert [r["id"] for r in driver["rules"]] == ["SIM101"]
        results = doc["runs"][0]["results"]
        assert len(results) == 2
        assert results[0]["ruleId"] == "SIM101"
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "pkg/m.py"
        assert loc["region"]["startLine"] == 3

    def test_parse_error_is_sarif_error_level(self, tmp_path, capsys):
        root = str(make_tree(tmp_path, {"pkg/m.py": "def broken(:\n"}))
        cli_main(["lint", "--root", root, "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["level"] == "error"

    def test_clean_tree_sarif_is_empty_but_valid(self, tmp_path,
                                                 capsys):
        root = str(make_tree(tmp_path, {"pkg/m.py": "X = 1\n"}))
        cli_main(["lint", "--root", root, "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"] == []


# ---------------------------------------------------------------------------
# --changed: diff-aware mode
# ---------------------------------------------------------------------------

def git(root, *args):
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.email=ci@example.com",
         "-c", "user.name=ci", *args],
        check=True, capture_output=True, text=True, timeout=30)


@pytest.fixture
def git_tree(tmp_path):
    root = make_tree(tmp_path, {"pkg/stable.py": ONE_CLOCK,
                                "pkg/edited.py": "X = 1\n"})
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "seed")
    return root


class TestChangedMode:
    def test_only_changed_file_findings_reported(self, git_tree,
                                                 capsys):
        (git_tree / "pkg" / "edited.py").write_text(ONE_CLOCK)
        code = run_lint_cli(paths=(), fmt="text", root=str(git_tree),
                            changed="HEAD")
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS
        assert "pkg/edited.py:3" in out
        assert "pkg/stable.py" not in out

    def test_clean_exit_when_only_unchanged_files_dirty(self, git_tree,
                                                        capsys):
        # stable.py has a finding, but nothing changed vs HEAD
        code = run_lint_cli(paths=(), fmt="text", root=str(git_tree),
                            changed="HEAD")
        capsys.readouterr()
        assert code == EXIT_CLEAN

    def test_untracked_files_count_as_changed(self, git_tree, capsys):
        (git_tree / "pkg" / "fresh.py").write_text(ONE_CLOCK)
        code = run_lint_cli(paths=(), fmt="text", root=str(git_tree),
                            changed="HEAD")
        out = capsys.readouterr().out
        assert code == EXIT_FINDINGS
        assert "pkg/fresh.py:3" in out

    def test_changed_outside_git_is_internal_error(self, tmp_path,
                                                   capsys):
        root = make_tree(tmp_path, {"pkg/m.py": ONE_CLOCK})
        env_isolated = str(root)
        code = run_lint_cli(paths=(), fmt="text", root=env_isolated,
                            changed="HEAD~987654321")
        capsys.readouterr()
        assert code == EXIT_INTERNAL_ERROR


# ---------------------------------------------------------------------------
# render_sarif unit: stable against report identity
# ---------------------------------------------------------------------------

def test_render_sarif_unit_stability():
    config = LintConfig(root=REPO_ROOT, paths=(FIXTURE_DIR,),
                        rule_paths={})
    first = render_sarif(lint_tree(config))
    second = render_sarif(lint_tree(config))
    assert first == second
    assert first.endswith("\n")
