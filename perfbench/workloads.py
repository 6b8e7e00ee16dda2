"""The broker benchmark's workloads: ``serve``, ``churn`` and ``sharded``.

Each workload drives the package through its public API from one
closed-loop client: one request is in flight, and the next is sent when
the reply arrives.  A workload object builds its target (:meth:`setup`),
runs operations for a time or a count (:meth:`run`), and afterwards
checks answers outside any timed region (:meth:`check`).
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from collections import defaultdict, deque
from dataclasses import replace
from pathlib import Path

from repro.broker import AttributeFilter, ContractDatabase, QueryOptions, Verdict
from repro.broker import journal as journal_module
from repro.broker import persist
from repro.dist import LocalCluster

from . import inputs as gen

SHARDS = 2

#: reopens of the churn directory after the window (restart samples)
REOPENS = 3

_INCONCLUSIVE = (Verdict.TIMED_OUT, Verdict.SKIPPED)


class Recorder:
    """Latency samples, counts and failures of one phase."""

    def __init__(self, tracer=None):
        #: set while tracing: each op's sequence number is its request id
        self.tracer = tracer
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ops = 0
        #: seconds inside the window that are not the workload's own
        #: operations (churn's reopen after a checkpoint); the window's
        #: length excludes them
        self.paused = 0.0
        self.ingest_records = 0
        self.ingest_seconds = 0.0
        self.deliveries = 0
        self.query_stats: dict[str, float] = defaultdict(float)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def call(self, kind: str, fn, *args, timed: bool = True):
        """One attempted operation; a raised error counts as a failed op.
        A ``timed`` one is also a window op with a latency sample."""
        self.attempted += 1
        if timed:
            self.ops += 1
            if self.tracer is not None:
                self.tracer.request = self.ops
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the op fails, the run goes on
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        if timed:
            self.latency[kind].append(time.perf_counter() - start)
        return result

    def absorb(self, other: "Recorder") -> None:
        """Take over another phase's attempted and failed counts."""
        self.attempted += other.attempted
        self.failed += other.failed
        for message in other.failures:
            if len(self.failures) < 20:
                self.failures.append(message)


def answer(rec: Recorder, outcome, what: str):
    """The permitted names of an outcome, or ``None`` (and a failure)
    when the outcome is inconclusive for any contract."""
    if outcome is None:
        return None
    if outcome.maybe_names or any(
        v in _INCONCLUSIVE for v in outcome.verdicts.values()
    ):
        rec.fail(f"{what}: inconclusive verdicts")
        return None
    return sorted(outcome.contract_names)


def ingest_summary(report) -> dict:
    """Deliveries and alerts of one ingest, in a form that is the same
    for a single node and for a cluster."""
    if isinstance(report, dict):
        deliveries, alerts = report["deliveries"], report["alerts"]
    else:
        deliveries = report.deliveries
        alerts = [a.to_dict() for a in report.alerts]
    return {
        "deliveries": deliveries,
        "alerts": sorted(
            [a["kind"], a["contract"], a["event_index"]] for a in alerts
        ),
    }


def user_bytes(contract: dict) -> int:
    """Clause text plus attribute bytes of one contract."""
    text = sum(len(c.encode("utf-8")) for c in contract["clauses"])
    return text + len(json.dumps(contract["attributes"], sort_keys=True))


def disk_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _options(pool: list[dict], scan: bool) -> list[QueryOptions]:
    def options(entry):
        attribute_filter = AttributeFilter.from_list(entry["filter"])
        if scan:
            return QueryOptions(use_prefilter=False, use_projections=False,
                                attribute_filter=attribute_filter)
        return QueryOptions(use_planner=True,
                            attribute_filter=attribute_filter)

    return [options(entry) for entry in pool]


class Workload:
    """Shared plumbing: inputs, sizes, query options, work directories."""

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.sizes = gen.Sizes(**inputs["sizes"])
        self.workdir = workdir
        self.pool = inputs["pool"]
        self.serving = _options(self.pool, scan=False)
        self.scan = _options(self.pool, scan=True)
        self.db = None
        self.restarts: list[float] = []
        #: registration statistics of set-up's corpus registrations
        self.built: list = []
        #: span index range of setup()'s registrations (traced runs)
        self.registration_spans = (0, 0)
        self._dirs = 0

    def reset(self) -> None:
        """Drop the previous set-up's target and let the collector free
        it (``run.py`` freezes a set-up's objects before its window)."""
        self.close()
        gc.unfreeze()
        gc.collect()

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def register_corpus(self, db, tracer, stores: list) -> None:
        """Register the corpus through ``db`` and keep a copy of the
        registration statistics of ``stores``, the databases that end up
        holding the contracts."""
        first = tracer.mark() if tracer else 0
        for contract in self.inputs["corpus"]:
            db.register(contract["name"], contract["clauses"],
                        contract["attributes"])
        if tracer:
            self.registration_spans = (first, tracer.mark())
        self.built = [replace(store.registration_stats) for store in stores]

    def query(self, rec: Recorder, index: int, *, scan: bool = False,
              timed: bool = True, summed: bool | None = None):
        """One pool query; ``timed`` records its latency as an op, and
        ``summed`` (default: ``timed``) adds its stats to the recorder's
        sums."""
        options = (self.scan if scan else self.serving)[index]
        outcome = rec.call("query", self.db.query, self.pool[index]["query"],
                           options, timed=timed)
        result = answer(rec, outcome, f"query {index}")
        if (timed if summed is None else summed) and outcome is not None:
            stats = outcome.stats
            for field in ("candidates", "permitted", "checked",
                          "relational_matches", "permission_seconds",
                          "selection_seconds", "prefilter_seconds"):
                rec.query_stats[field] += getattr(stats, field)
        return result

    def check_against_scan(self, rec: Recorder, indices) -> dict:
        """Serve each query and compare with the scan configuration
        (``use_prefilter=False, use_projections=False``)."""
        answers = {}
        for index in indices:
            served = self.query(rec, index, timed=False)
            scanned = self.query(rec, index, scan=True, timed=False)
            if served != scanned:
                rec.fail(f"query {index}: served {served} != scan {scanned}")
            answers[str(index)] = served
        return answers

    def journal_written(self) -> int:
        """Journal bytes appended since set-up (churn's journal)."""
        return 0

    def dist_counters(self) -> dict:
        return {"retries": 0, "trips": 0}


class Serving(Workload):
    """``serve`` (a single node loaded from its snapshot) and ``sharded``
    (the same corpus and traffic through a cluster's coordinator)."""

    def __init__(self, inputs: dict, workdir: Path, sharded: bool):
        super().__init__(inputs, workdir)
        self.sharded = sharded
        self.ops = inputs["ops"]
        self.cluster = None
        self.snapshot = None
        self.cursor = 0
        #: pool index -> the answer first served for it
        self.answers: dict[int, list] = {}
        self.warm_ingest: list[dict] = []

    def setup(self, tracer=None) -> float:
        """Register the corpus, (serve) save and reload it, then run the
        warm-up pass; returns the elapsed seconds."""
        self.reset()
        start = time.perf_counter()
        if self.sharded:
            self.cluster = LocalCluster(SHARDS)
            self.db = self.cluster.database()
            self.register_corpus(self.db, tracer,
                                 [s.db for s in self.cluster.servers])
        else:
            built = ContractDatabase()
            self.register_corpus(built, tracer, [built])
            self.snapshot = self.fresh_dir("snapshot")
            persist.save_database(built, self.snapshot)
            loading = time.perf_counter()
            self.db = persist.load_database(self.snapshot)
            self.restarts.append(time.perf_counter() - loading)
        self.cursor = 0
        self.answers = {}
        self.warm_ingest = []
        warm = Recorder()
        self.run(warm, count=self.sizes.warmup, warm=True)
        elapsed = time.perf_counter() - start
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.failures}")
        return elapsed

    def run(self, rec: Recorder, *, seconds: float | None = None,
            count: int | None = None, warm: bool = False) -> int:
        """Run operations from the sequence (cycling) for ``seconds``
        and at least ``min_queries`` queries, or exactly ``count``
        operations; returns the operations run."""
        done = queries = 0
        start = time.perf_counter()
        while True:
            if count is not None:
                if done >= count:
                    break
            elif (queries >= self.sizes.min_queries
                  and time.perf_counter() - start >= seconds):
                break
            kind, argument = self.ops[self.cursor % len(self.ops)]
            self.cursor += 1
            done += 1
            if kind == "query":
                queries += 1
                served = self.query(rec, argument)
                if served is not None:
                    first = self.answers.setdefault(argument, served)
                    if first != served:
                        rec.fail(f"query {argument}: answer changed")
            else:
                self.ingest(rec, argument, warm)
        return done

    def ingest(self, rec: Recorder, records: list, warm: bool) -> None:
        start = time.perf_counter()
        report = rec.call("ingest", self.db.ingest, records)
        if report is None:
            return
        rec.ingest_seconds += time.perf_counter() - start
        rec.ingest_records += len(records)
        summary = ingest_summary(report)
        rec.deliveries += summary["deliveries"]
        if warm:
            self.warm_ingest.append(summary)

    def check(self, rec: Recorder, seed: int) -> dict:
        """Check a seeded sample of distinct queries against the scan
        configuration; returns the answers."""
        rng = random.Random(f"check:{seed}")
        sample = sorted(rng.sample(range(len(self.pool)),
                                   min(self.sizes.check_sample, len(self.pool))))
        answers = self.check_against_scan(rec, sample)
        for index in sample:
            seen = self.answers.get(index)
            if seen is not None and seen != answers[str(index)]:
                rec.fail(f"query {index}: window answer {seen} != "
                         f"{answers[str(index)]}")
        return {"queries": answers, "ingest": self.warm_ingest}

    def figures(self) -> dict:
        """Sizes on disk (serve's snapshot)."""
        if self.sharded:
            return {}
        return {
            "stored_bytes": disk_bytes(self.snapshot),
            "user_bytes": sum(user_bytes(c) for c in self.inputs["corpus"]),
        }

    def dist_counters(self) -> dict:
        if not self.sharded:
            return super().dist_counters()
        metrics = self.db.metrics
        return {"retries": metrics.counter_value("dist.retries"),
                "trips": metrics.counter_value("dist.breaker_open")}

    def close(self) -> None:
        if self.cluster is not None:
            self.db.close()
            self.cluster.stop()
            self.cluster = None
        self.db = None


class Churn(Workload):
    """``churn``: register one fresh contract, deregister the oldest, run
    a few hot-pool queries; checkpoint every M mutations.

    The database's journal names contracts by id, and ``save_database``
    renumbers ids in the snapshot it writes, so the live database is
    reopened from its directory after every checkpoint (ids then agree
    with the snapshot's).  Without that reopen, a deregistration journaled
    after a checkpoint names a stale id and replay drops it together with
    every later record (``test_replay_after_checkpoint_keeps_later_
    mutations`` reproduces it).  The reopen and the re-warm after it are
    not the workload's operations: their time is kept out of the window.
    """

    def __init__(self, inputs: dict, workdir: Path):
        super().__init__(inputs, workdir)
        self.fresh = inputs["fresh"]
        self.picks = inputs["picks"]
        self.directory = None
        self.live: deque[str] = deque()
        self.ids: dict[str, int] = {}
        #: live contract name -> its input spec
        self.specs: dict[str, dict] = {}
        self.removed: set[str] = set()
        self.cycle = 0
        self.since_checkpoint = 0
        self.journal_base = 0
        self.journal_bytes = 0
        self.snapshot_bytes = 0
        self.mutation_bytes = 0
        self.window = {}
        self.hot_answers: dict[str, list] = {}

    def setup(self, tracer=None) -> float:
        """Fill a fresh journaled database with the corpus and warm the
        hot pool; returns the elapsed seconds."""
        self.reset()
        directory = self.fresh_dir("journal")
        start = time.perf_counter()
        db = journal_module.open_database(directory)
        self.register_corpus(db, tracer, [db])
        self.db, self.directory = db, directory
        self._refresh_ids()
        self.live = deque(c["name"] for c in self.inputs["corpus"])
        self.specs = {c["name"]: c for c in self.inputs["corpus"]}
        self.removed = set()
        self.cycle = self.since_checkpoint = 0
        self.journal_base = self._journal_size()
        self.journal_bytes = self.snapshot_bytes = self.mutation_bytes = 0
        warm = Recorder()
        self._warm(warm)
        elapsed = time.perf_counter() - start
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.failures}")
        return elapsed

    def _warm(self, rec: Recorder) -> None:
        for index in range(len(self.pool)):
            self.query(rec, index, timed=False, summed=True)

    def _refresh_ids(self) -> None:
        self.ids = {c.name: c.contract_id for c in self.db.contracts()}

    def _journal_size(self) -> int:
        return os.stat(self.db.journal.path).st_size

    def run(self, rec: Recorder, *, seconds: float | None = None,
            count: int | None = None) -> int:
        """Run cycles for ``seconds`` (paused time not counted) and at
        least the sample minimums, up to the next checkpoint, or exactly
        ``count`` cycles; returns the cycles run.  A timed window holds
        whole checkpoint intervals, each of which registers every fresh
        contract once, so its mix does not depend on where it stops."""
        done = 0
        start = time.perf_counter() - rec.paused
        while True:
            if count is not None:
                if done >= count:
                    break
            elif (self.since_checkpoint == 0
                  and len(rec.latency["register"]) >= self.sizes.min_registers
                  and len(rec.latency["query"]) >= self.sizes.min_queries
                  and time.perf_counter() - start - rec.paused >= seconds):
                break
            self._cycle(rec)
            done += 1
        return done

    def _cycle(self, rec: Recorder) -> None:
        lap, position = divmod(self.cycle, len(self.fresh))
        spec = self.fresh[position]
        name = spec["name"] if lap == 0 else f"{spec['name']}r{lap}"
        contract = rec.call("register", self.db.register, name,
                            spec["clauses"], spec["attributes"])
        if contract is not None:
            self.live.append(name)
            self.ids[name] = contract.contract_id
            self.specs[name] = spec
            self.mutation_bytes += user_bytes(spec)
        oldest = self.live.popleft()
        contract_id = self.ids.pop(oldest)
        self.specs.pop(oldest)
        rec.call("deregister", self.db.deregister, contract_id)
        self.removed.add(oldest)
        self.mutation_bytes += len(str(contract_id))
        self.since_checkpoint += 2
        base = self.cycle * self.sizes.churn_queries
        for j in range(self.sizes.churn_queries):
            self.query(rec, self.picks[(base + j) % len(self.picks)])
        self.cycle += 1
        if self.since_checkpoint >= self.sizes.checkpoint_every:
            self.checkpoint(rec)

    def checkpoint(self, rec: Recorder) -> None:
        """``save_database`` into the journal's directory (which compacts
        the journal), then reopen and re-warm the hot pool (paused)."""
        self.journal_bytes += self._journal_size() - self.journal_base
        rec.call("checkpoint", persist.save_database, self.db, self.directory)
        self.snapshot_bytes += (
            disk_bytes(self.directory) - self._journal_size())
        start = time.perf_counter()
        self.db.journal.close()
        self.db = journal_module.open_database(self.directory)
        self._refresh_ids()
        self._warm(rec)
        reopen = time.perf_counter() - start
        rec.latency["reopen"].append(reopen)
        rec.paused += reopen
        self.journal_base = self._journal_size()
        self.since_checkpoint = 0

    def journal_written(self) -> int:
        """Journal bytes appended since set-up."""
        return self.journal_bytes + self._journal_size() - self.journal_base

    def check(self, rec: Recorder, seed: int) -> dict:
        """Settle the journal tail to half a checkpoint interval, check
        the hot pool against the scan, reopen the directory (timed:
        ``restart_s``) and verify that every acknowledged mutation
        survived; returns the answers."""
        self.window = {
            "written_bytes": self.journal_written() + self.snapshot_bytes,
            "mutation_bytes": self.mutation_bytes,
            "cycles": self.cycle,
        }
        post = Recorder()
        tail = self.sizes.checkpoint_every // 2
        if self.since_checkpoint > tail:
            self.checkpoint(post)
        while self.since_checkpoint < tail:
            self._cycle(post)
        self.hot_answers = self.check_against_scan(post, range(len(self.pool)))
        for _ in range(REOPENS):
            self.db.journal.close()
            gc.collect()
            start = time.perf_counter()
            self.db = journal_module.open_database(self.directory)
            self.restarts.append(time.perf_counter() - start)
        for problem in self.verify(self.db):
            post.fail(problem)
        rec.absorb(post)
        return {"live": sorted(self.live), "queries": self.hot_answers}

    def verify(self, db) -> list[str]:
        """Durability: every acknowledged registration present, every
        deregistered contract absent, hot-pool answers unchanged."""
        names = {c.name for c in db.contracts()}
        problems = []
        missing = set(self.live) - names
        if missing:
            problems.append(f"lost acknowledged registrations: {sorted(missing)}")
        back = self.removed & names
        if back:
            problems.append(f"deregistered contracts present: {sorted(back)}")
        scratch = Recorder()
        held, self.db = self.db, db
        try:
            for index, expected in self.hot_answers.items():
                got = self.query(scratch, int(index), timed=False)
                if got != expected:
                    problems.append(
                        f"query {index}: {got} after reopen, {expected} before")
        finally:
            self.db = held
        problems.extend(scratch.failures)
        return problems

    def figures(self) -> dict:
        """Sizes on disk and bytes written in the window."""
        return {
            "stored_bytes": disk_bytes(self.directory),
            "user_bytes": sum(user_bytes(c) for c in self.specs.values()),
            **self.window,
        }

    def close(self) -> None:
        if self.db is not None and self.db.journal is not None:
            self.db.journal.close()
        self.db = None


def make(workload: str, inputs: dict, workdir: Path) -> Workload:
    if workload == "churn":
        return Churn(inputs, workdir)
    return Serving(inputs, workdir, sharded=workload == "sharded")
