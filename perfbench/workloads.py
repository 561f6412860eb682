"""The benchmark's workloads, and the code that runs, times and checks them.

Every workload drives the real CLI as subprocesses (``repro campaign
run``, ``repro serve``, ``repro worker``) and times it from outside.
All load comes from this one process: campaigns run ``--workers 2``, and
the served workload is one closed-loop client against one server with
one worker.

Each workload kind (:class:`Campaign`, :class:`Served`) knows how to run
one measured unit, how to only set up, which store digests its units
must reproduce, and what its traced unit tells the ledger. CPU-bound
intervals are scaled to the reference CPU by a
:class:`~perfbench.speed.SpeedProbe`; the served loop, which is mostly
the worker's poll sleeps, is reported as measured.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from perfbench import tracer
from perfbench.speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: sha256 of the seed-0 store of each campaign workload
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")

#: every registered protected scheme
SCHEMES: Tuple[str, ...] = ("unsync", "reunion", "reptfd", "meek")
#: campaign pool size, pinned to the reference host's ``nproc`` so that
#: numbers compare across hosts
WORKERS = 2
#: a run must end within 180 s; a child still running this long after
#: its unit started is killed
DEADLINE_S = 150.0
#: how often the benchmark looks for a store's first lines or a job's
#: state: 1% of a ~1 s set-up
POLL_S = 0.01


def clock() -> float:
    """Seconds on CLOCK_MONOTONIC, the clock the tracer uses too."""
    return time.perf_counter()


@dataclass
class Outcome:
    """What one unit (a campaign, or a served session) measured.

    Times are reference-CPU seconds where the interval is CPU-bound (see
    :mod:`perfbench.speed`); ``raw`` keeps the wall seconds.
    """

    setup_s: float
    rss_mb: float
    #: campaign: one value each; served: one value per job
    first_s: List[float]
    done_s: List[float]
    trials: int
    #: time over which ``trials`` completed, set-up excluded
    busy_s: float
    #: trials of a campaign, jobs of a session
    attempted: int
    failed: int
    problems: List[str]
    #: store file per job (one for a campaign) and its sha256
    stores: List[str]
    digests: List[str]
    raw: Dict[str, Any] = field(default_factory=dict)

    @property
    def attempted_per_store(self) -> int:
        """What one wrong store fails: the whole campaign, or one job."""
        return self.attempted // max(1, len(self.stores))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def repro_command(argv: Sequence[str],
                  trace_dir: Optional[str] = None) -> List[str]:
    """``python -m repro ARGV``, or the traced launcher around it."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, "-m", "perfbench.launch", "--trace-dir",
            trace_dir, "--", *argv]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


class Child:
    """One spawned process, reaped with ``wait4`` for its max RSS."""

    def __init__(self, cmd: List[str], cwd: str, log: str) -> None:
        #: standard output goes to ``log``, standard error to ``log.err``
        self.log = log
        with open(log, "w") as out, open(f"{log}.err", "w") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                start_new_session=True)
        self.returncode: Optional[int] = None
        #: max RSS of the process and every child it reaped, in MB
        self.rss_mb = 0.0

    def _reaped(self, status: int, usage) -> None:
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0

    def poll(self) -> bool:
        """True once the process has exited (and is reaped)."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, usage)
        return self.returncode is not None

    def wait(self, timeout: float) -> int:
        """Block until exit; the process group is killed at ``timeout``."""
        if self.returncode is not None:
            return self.returncode
        killer = threading.Timer(max(0.0, timeout), self.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self._reaped(status, usage)
        return self.returncode

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(self, timeout: float = 20.0) -> int:
        """SIGTERM (both CLIs drain on it), then wait."""
        if self.returncode is None:
            try:
                os.kill(self.proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        code = self.wait(timeout)
        if code != 0:
            self.kill()  # pool workers of a failed process must not linger
        return code

    def tail(self, lines: int = 5) -> str:
        """The last lines of standard error, for failure reports."""
        try:
            with open(f"{self.log}.err") as fh:
                return " | ".join(fh.read().strip().splitlines()[-lines:])
        except OSError:
            return ""


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def store_problems(path: str, spec) -> Tuple[int, List[str]]:
    """``(failed trials, problems)`` of one store against its spec.

    Failed trials are CRASH records plus missing, duplicate and
    unexpected (cell, seed) keys; a wrong or absent header fails them
    all.
    """
    from repro.campaign.spec import cell_id
    expected = {(cell_id(s, w, r), t.seed)
                for s, w, r in spec.cells()
                for t in spec.cell_trials(s, w, r)}
    try:
        with open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        return len(expected), [f"{path}: unreadable store ({exc})"]
    if not records or records[0].get("spec") != spec.to_dict():
        return len(expected), [f"{path}: missing or foreign spec header"]
    seen: Dict[Tuple[str, int], int] = {}
    crashes = 0
    for record in records[1:]:
        key = (record.get("cell"), record.get("seed"))
        seen[key] = seen.get(key, 0) + 1
        crashes += record.get("outcome") == "crash"
    missing = len(expected - set(seen))
    unexpected = sum(n for key, n in seen.items() if key not in expected)
    duplicates = sum(n - 1 for key, n in seen.items()
                     if key in expected and n > 1)
    failed = crashes + missing + unexpected + duplicates
    problems = []
    if failed:
        problems.append(f"{path}: {crashes} crash, {missing} missing, "
                        f"{duplicates} duplicate, {unexpected} unexpected "
                        f"trial records")
    return failed, problems


def store_totals(path: str) -> Dict[str, float]:
    """Strikes, and cycles of struck trials, summed over a store."""
    strikes = struck_cycles = 0
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("kind") == "trial" and record.get("strikes"):
                strikes += record["strikes"]
                struck_cycles += record["cycles"]
    return {"strikes": strikes, "struck_cycles": struck_cycles}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# campaign workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Campaign:
    """A ``repro campaign run`` grid over :data:`SCHEMES`."""

    #: set-up-only launches per run, besides each unit's set-up
    extra_setups: ClassVar[int] = 2

    name: str
    workloads: Tuple[str, ...]
    sers: Tuple[float, ...]
    trials: int
    batch: int
    fault_model: str = "standard"
    watchdog_cycles: Optional[int] = None

    @property
    def planned(self) -> int:
        return len(SCHEMES) * len(self.workloads) * len(self.sers) \
            * self.trials

    def argv(self, store: str, seed: int) -> List[str]:
        argv = ["campaign", "run", "--store", store, "--json",
                "--schemes", *SCHEMES, "--workloads", *self.workloads,
                "--ser", *map(repr, self.sers),
                "--trials", str(self.trials), "--batch", str(self.batch),
                "--workers", str(WORKERS), "--seed-base", str(seed),
                "--fault-model", self.fault_model]
        if self.watchdog_cycles is not None:
            argv += ["--watchdog-cycles", str(self.watchdog_cycles)]
        return argv

    def spec(self, seed: int):
        """The spec :meth:`argv` asks the CLI to run."""
        from repro.campaign import CampaignSpec
        return CampaignSpec(schemes=SCHEMES, workloads=self.workloads,
                            sers=self.sers, trials=self.trials,
                            seed_base=seed, batch=self.batch,
                            fault_model=self.fault_model,
                            watchdog_cycles=self.watchdog_cycles)

    def _launch(self, seed: int, work: str, tag: str,
                trace_dir: Optional[str], until_first: bool):
        """Start the CLI on a fresh store and poll it until its header
        line (or, with ``until_first``, its first trial line) exists.

        Returns ``(child, store, start, header_at, first_at)``; a time is
        ``None`` when the process exited or the deadline passed first.
        """
        store = os.path.join(work, f"{tag}.jsonl")
        if os.path.exists(store):
            os.remove(store)  # an existing store would make the CLI resume
        start = clock()
        child = Child(repro_command(self.argv(store, seed), trace_dir),
                      work, os.path.join(work, f"{tag}.log"))
        header_at = first_at = None
        header_len = 0
        try:
            while not child.poll() and clock() - start < DEADLINE_S:
                try:
                    size = os.path.getsize(store)
                except OSError:
                    size = 0
                if header_at is None and size:
                    with open(store, "rb") as fh:
                        head = fh.read()
                    if b"\n" in head:
                        header_at = clock()
                        header_len = head.index(b"\n") + 1
                if header_at is not None and not until_first:
                    break
                if header_at is not None and size > header_len:
                    first_at = clock()
                    break
                time.sleep(POLL_S)
        except BaseException:
            child.kill()
            child.wait(DEADLINE_S)
            raise
        return child, store, start, header_at, first_at

    def set_up(self, seed: int, work: str, tag: str,
               probe: SpeedProbe) -> Tuple[float, float]:
        """Launch, wait for the store header, kill: ``(set-up scaled to
        the reference CPU, wall set-up)``."""
        child, store, start, header_at, _ = self._launch(
            seed, work, tag, None, until_first=False)
        child.kill()
        child.wait(DEADLINE_S)
        header_at = header_at or clock()
        return probe.scale(start, header_at), header_at - start

    def run_unit(self, seed: int, work: str, tag: str, probe: SpeedProbe,
                 trace_dir: Optional[str] = None) -> Outcome:
        """Launch one campaign and time it from outside.

        Set-up ends when the store's header line exists; the first result
        when the first trial line exists; done when the process exits.
        """
        child, store, start, header_at, first_at = self._launch(
            seed, work, tag, trace_dir, until_first=True)
        try:
            code = child.wait(DEADLINE_S - (clock() - start))
        except BaseException:
            child.kill()
            child.wait(DEADLINE_S)
            raise
        end = clock()
        problems = []
        if code != 0:
            child.kill()  # pool workers of a failed campaign must not linger
            problems.append(f"{self.name}: exit {code}: {child.tail()}")
        failed, store_issues = store_problems(store, self.spec(seed))
        problems += store_issues
        if code != 0:
            failed = self.planned
        header_at = header_at or end
        first_at = first_at or end
        return Outcome(
            setup_s=probe.scale(start, header_at), rss_mb=child.rss_mb,
            first_s=[probe.scale(start, first_at)],
            done_s=[probe.scale(start, end)], trials=self.planned,
            busy_s=probe.scale(header_at, end), attempted=self.planned,
            failed=failed, problems=problems, stores=[store],
            digests=[sha256(store)] if os.path.exists(store) else [""],
            raw={"setup_s": header_at - start, "busy_s": end - header_at,
                 "done_s": end - start,
                 "speed": probe.speed(start, end)})

    def reference(self, seed: int, work: str,
                  outcomes: List[Outcome]) -> List[str]:
        """The store digest every unit must have: the committed one at
        seed 0, else the first unit's."""
        expected = None
        if seed == 0 and os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                expected = json.load(fh).get(self.name)
        return [expected or outcomes[0].digests[0]]

    def trace_context(self, traced: Outcome,
                      untraced: List[Outcome]) -> Dict[str, Any]:
        """What the ledger needs and the trace cannot know."""
        return dict(store_totals(traced.stores[0]), workers=WORKERS,
                    traced_s=traced.done_s[0],
                    untraced_s=median(o.done_s[0] for o in untraced))


# ---------------------------------------------------------------------------
# the served workload
# ---------------------------------------------------------------------------

class HTTPFailure(RuntimeError):
    """A reply other than 2xx from the service."""


def http_json(port: int, method: str, path: str,
              body: Optional[Dict] = None, timeout: float = 10.0) -> Dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.status >= 300:
            raise HTTPFailure(f"{method} {path}: HTTP {response.status}: "
                              f"{raw[:200]!r}")
        return json.loads(raw or b"{}")
    finally:
        conn.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _until(probe, deadline: float, interval: float = POLL_S) -> bool:
    while clock() < deadline:
        try:
            if probe():
                return True
        except (OSError, HTTPFailure, ValueError):
            pass
        time.sleep(interval)
    return False


class _Session:
    """``repro serve --expect-workers 1 --max-concurrent 1`` plus one
    ``repro worker``, started and registered on entry, stopped on exit."""

    def __init__(self, work: str, tag: str,
                 trace_dir: Optional[str]) -> None:
        self.work, self.tag, self.trace_dir = work, tag, trace_dir
        self.port = _free_port()
        self.children: List[Child] = []
        self.problems: List[str] = []
        self.start = self.registered = 0.0

    def __enter__(self) -> "_Session":
        port = self.port
        self.start = clock()
        deadline = self.start + DEADLINE_S
        server = Child(repro_command(
            ["serve", "--port", str(port), "--data-dir",
             os.path.join(self.work, self.tag), "--expect-workers", "1",
             "--max-concurrent", "1"], self.trace_dir),
            self.work, os.path.join(self.work, f"{self.tag}-serve.log"))
        self.children.append(server)
        try:
            if not _until(lambda: http_json(port, "GET", "/healthz")["ok"],
                          deadline):
                raise HTTPFailure(f"server never answered: {server.tail()}")
            worker = Child(repro_command(
                ["worker", "--connect", f"127.0.0.1:{port}"],
                self.trace_dir),
                self.work, os.path.join(self.work, f"{self.tag}-worker.log"))
            self.children.append(worker)
            if not _until(lambda: any(
                    x["live"] for x in http_json(
                        port, "GET", "/api/workers")["workers"]), deadline):
                raise HTTPFailure(
                    f"worker never registered: {worker.tail()}")
        except BaseException:
            self.__exit__()
            raise
        self.registered = clock()
        return self

    def __exit__(self, *exc) -> None:
        for child in reversed(self.children):
            if child.stop() != 0:
                self.problems.append(
                    f"{' '.join(child.proc.args[-6:])}: exit "
                    f"{child.returncode}: {child.tail()}")

    @property
    def rss_mb(self) -> float:
        return max((c.rss_mb for c in self.children), default=0.0)


@dataclass(frozen=True)
class Served:
    """Closed-loop jobs through ``repro serve`` plus one ``repro worker``."""

    #: set-up-only sessions per run, besides each session's set-up
    extra_setups: ClassVar[int] = 1

    name: str
    #: jobs submitted one after another per server session
    jobs_per_session: int
    job: Dict[str, Any] = field(default_factory=dict)

    @property
    def trials_per_job(self) -> int:
        return len(self.job["schemes"]) * len(self.job["workloads"]) \
            * len(self.job["sers"]) * self.job["trials"]

    def submission(self, seed: int, index: int) -> Dict[str, Any]:
        """Job ``index`` of a session; jobs cover disjoint seed ranges."""
        return dict(self.job, seed_base=seed + index * self.job["trials"])

    def spec(self, seed: int, index: int):
        from repro.service.server import spec_from_request
        return spec_from_request(self.submission(seed, index))

    def set_up(self, seed: int, work: str, tag: str,
               probe: SpeedProbe) -> Tuple[float, float]:
        """Start a session and stop it once the worker is live."""
        with _Session(work, tag, None) as session:
            pass
        return (probe.scale(session.start, session.registered),
                session.registered - session.start)

    def run_unit(self, seed: int, work: str, tag: str, probe: SpeedProbe,
                 trace_dir: Optional[str] = None) -> Outcome:
        """One session running :attr:`jobs_per_session` jobs.

        Set-up runs from server launch until ``/api/workers`` lists a live
        worker. Each job is timed from submit until ``trials_done >= 1``
        (first result) and until its state is ``done``, polled every
        :data:`POLL_S`. These times are mostly the worker's poll sleeps,
        so they are not scaled. In a traced unit each of this client's
        submit and status calls is recorded as a span too.
        """
        client = None
        if trace_dir is not None:
            client = tracer.Recorder()
            client.role = "benchmark client"
        first: List[float] = []
        done: List[float] = []
        stores: List[str] = []
        problems: List[str] = []
        failed = 0
        loop_s = setup = wall_setup = 0.0
        session = _Session(work, tag, trace_dir)

        def call(route: str, method: str, path: str,
                 body: Optional[Dict] = None) -> Dict:
            t0 = time.perf_counter_ns()
            try:
                return http_json(session.port, method, path, body)
            finally:
                if client is not None:
                    client.span("client", "blocked", t0,
                                time.perf_counter_ns(), route)

        try:
            with session:
                setup = probe.scale(session.start, session.registered)
                wall_setup = session.registered - session.start
                deadline = session.start + DEADLINE_S
                loop_start = clock()
                for index in range(self.jobs_per_session):
                    submitted = clock()
                    job = call("submit", "POST", "/api/jobs",
                               self.submission(seed, index))
                    first_at = None
                    while True:
                        status = call("status", "GET",
                                      f"/api/jobs/{job['job_id']}")
                        now = clock()
                        if first_at is None and status["trials_done"] >= 1:
                            first_at = now
                        if status["state"] in ("done", "failed",
                                               "cancelled"):
                            break
                        if now > deadline:
                            status["state"] = "timed out"
                            break
                        time.sleep(POLL_S)
                    if status["state"] != "done":
                        failed += 1
                        problems.append(
                            f"served job {index}: {status['state']}")
                        stores.append("")
                        continue
                    first.append(first_at - submitted)
                    done.append(now - submitted)
                    stores.append(status["store"])
                loop_s = clock() - loop_start
        except (OSError, HTTPFailure, ValueError, KeyError) as exc:
            problems.append(f"served session: {exc!r}")
            failed = self.jobs_per_session - len(done)
        problems += session.problems
        stores += [""] * (self.jobs_per_session - len(stores))
        if client is not None:
            client.dump(os.path.join(trace_dir, f"proc-{os.getpid()}.json"))
        return Outcome(
            setup_s=setup, rss_mb=session.rss_mb, first_s=first,
            done_s=done, trials=len(done) * self.trials_per_job,
            busy_s=loop_s, attempted=self.jobs_per_session, failed=failed,
            problems=problems, stores=stores,
            digests=[sha256(s) if s and os.path.exists(s) else ""
                     for s in stores],
            raw={"setup_s": wall_setup,
                 "speed": probe.speed(session.start, clock())})

    def reference(self, seed: int, work: str,
                  outcomes: List[Outcome]) -> List[str]:
        """Digest of each session job's store from an in-process
        ``run_campaign(spec, workers=1)``: what a served job must equal."""
        from repro.campaign import run_campaign
        digests = []
        for index in range(self.jobs_per_session):
            path = os.path.join(work, f"reference-{index}.jsonl")
            run_campaign(self.spec(seed, index), path, workers=1,
                         ticker_enabled=False)
            digests.append(sha256(path))
        return digests

    def trace_context(self, traced: Outcome,
                      untraced: List[Outcome]) -> Dict[str, Any]:
        """What the ledger needs and the trace cannot know."""
        totals = [store_totals(s) for s in traced.stores if s]
        return {"workers": 1,
                "strikes": sum(t["strikes"] for t in totals),
                "struck_cycles": sum(t["struck_cycles"] for t in totals),
                "traced_s": traced.busy_s,
                "untraced_s": median(o.busy_s for o in untraced)}


#: the workloads, by name; ``BENCHMARK.json`` says why each was chosen
WORKLOADS: Dict[str, Any] = {w.name: w for w in (
    # strikes land in the first few thousand cycles: each trial restores
    # from an early epoch and re-simulates most of its run. At 2e-3 every
    # UnSync trial recovers until the watchdog ends it, so the work is
    # nearly the same at every seed
    Campaign("midrun", workloads=("bzip2", "mcf"), sers=(2e-3,),
             trials=3, batch=3, watchdog_cycles=6000),
    # every trial is a cached verdict; two waves of batch 25. A struck
    # trial re-simulates its run, and the seeds that draw an early strike
    # do so in every cell, so at 1e-6 a few seed bases had 8-16 struck
    # trials and took 17-40% longer; at 1e-9 no seed base tried had one
    Campaign("paper-scale", workloads=("bzip2", "mcf"),
             sers=(1e-9, 1e-10), trials=50, batch=25),
    # every UnSync trial recovers until the watchdog ends it and every
    # other trial is struck, so the work is nearly the same at every seed
    Campaign("adversarial", workloads=("sha", "qsort"), sers=(4e-3,),
             trials=3, batch=3, fault_model="adversarial",
             watchdog_cycles=8000),
    # one wave per job: with two, the worker's claim races the next
    # wave's offer and a job takes 0.6 or 1.1 s at random
    Served("served", jobs_per_session=8,
           job={"schemes": ["unsync", "reunion"],
                "workloads": ["fibonacci"], "sers": [1e-2], "trials": 4,
                "batch": 4}),
)}
