"""Run one workload of the broker benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and prints the per-layer ledger.  Every
metric is printed by name and unit, then a ``report:`` line (input and
answer digests, sample counts), and last one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed answer
or durability check makes the command exit with code 1; a run that
cannot start (for example, no package source beside the benchmark)
exits with code 2 and prints no result.

The run is one process.  Set and dict iteration orders inside the
package follow the hash seed and move its timings by up to a fifth, so
the runner re-executes itself once with a fixed ``PYTHONHASHSEED``
(:data:`HASH_SEED`); runs of the same code then share one iteration
order.  Set-up runs :data:`SETUPS` times and ``setup_s`` is their
median; the timed window runs on the last set-up.
See ``perfbench/WORKLOADS.md`` for the workloads and the ledger.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve", "churn", "sharded")

#: the end-to-end metrics BENCHMARK.json lists; every workload reports them
END_TO_END = ("setup_s", "ops_per_s", "query_p50_ms", "query_p99_ms",
              "peak_rss_mb")

#: PYTHONHASHSEED every run executes under
HASH_SEED = "101"
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3

#: (span, RegistrationStats field) pairs of the registration cross-check
CLOCKS_REGISTER = (
    ("automata.translate.contract", "translation_seconds"),
    ("projection.build", "projection_seconds"),
    ("index.insert", "prefilter_seconds"),
    ("core.seeds", "seeds_seconds"),
    ("automata.encode", "encode_seconds"),
)
#: (span, summed QueryStats field) pairs of the query cross-check
CLOCKS_QUERY = (
    ("core.decide", "permission_seconds"),
    ("projection.select", "selection_seconds"),
    ("index.evaluate", "prefilter_seconds"),
)


def _import_package() -> None:
    """Put the checkout's own ``src`` first on the path and make sure
    the package really comes from there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}",
              file=sys.stderr)
        raise SystemExit(2)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _settle() -> None:
    """Collect, then freeze what set-up left alive (the corpus automata,
    projections and indexes) into the permanent generation, as a
    long-running server does after loading.  Otherwise each full
    collection walks all of it and stalls one query for about 100 ms at
    points that shift with allocation counts, and the 99th percentile
    would measure where those stalls fall.  The next set-up unfreezes
    (see ``Workload.reset``)."""
    gc.collect()
    gc.freeze()


# -- the untraced run ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, scale: str,
            workdir: Path) -> dict:
    """Set up :data:`SETUPS` times, run the timed window on the last
    set-up, check answers, and return the end-to-end metrics."""
    from perfbench import inputs as gen
    from perfbench import workloads

    inputs = gen.generate(workload, seed, scale)
    target = workloads.make(workload, inputs, workdir)
    try:
        setups = [target.setup() for _ in range(SETUPS)]
        rec = workloads.Recorder()
        _settle()
        began = time.perf_counter()
        target.run(rec, seconds=seconds)
        window = time.perf_counter() - began - rec.paused
        answers = target.check(rec, seed)
        figures = target.figures()
    finally:
        target.close()

    queries = rec.latency["query"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (rec.ops / window, "ops/s"),
        "query_p50_ms": (percentile(queries, 50) * 1e3, "ms"),
        "query_p99_ms": (percentile(queries, 99) * 1e3, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "failed_op_ratio": (_ratio(rec.failed, rec.attempted),
                            "ratio of attempted ops"),
    }
    if workload in ("serve", "sharded"):
        metrics["ingest_events_per_s"] = (
            _ratio(rec.ingest_records, rec.ingest_seconds), "events/s")
    if workload in ("serve", "churn"):
        metrics["restart_s"] = (median(target.restarts), "s")
        metrics["stored_bytes_per_user_byte"] = (
            _ratio(figures["stored_bytes"], figures["user_bytes"]), "ratio")
    if workload == "churn":
        register = rec.latency["register"]
        metrics.update({
            "register_p50_ms": (percentile(register, 50) * 1e3, "ms"),
            "register_p90_ms": (percentile(register, 90) * 1e3, "ms"),
            "checkpoint_p50_ms": (
                percentile(rec.latency["checkpoint"], 50) * 1e3, "ms"),
            "write_bytes_per_user_byte": (
                _ratio(figures["written_bytes"], figures["mutation_bytes"]),
                "ratio"),
        })
    return {
        "metrics": metrics,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "report": {
            "inputs_sha256": gen.digest(inputs),
            "answers_sha256": gen.digest(answers),
            "window_s": window,
            "paused_s": rec.paused,
            "setups_s": setups,
            "samples": {k: len(v) for k, v in sorted(rec.latency.items())},
            # share of the window each kind of operation took
            "time_share": {k: sum(v) / window
                           for k, v in sorted(rec.latency.items())
                           if k != "reopen"},
        },
    }


# -- the traced run -----------------------------------------------------------------


def traced(workload: str, seed: int, scale: str, workdir: Path,
           trace_path: Path | None) -> dict:
    """The same fixed count of operations once untraced and once
    traced, each on its own set-up; the per-layer ledger of the traced
    pass."""
    from perfbench import inputs as gen
    from perfbench import workloads
    from perfbench.tracing import Tracer

    inputs = gen.generate(workload, seed, scale)
    target = workloads.make(workload, inputs, workdir)
    count = (target.sizes.trace_cycles if workload == "churn"
             else target.sizes.trace_ops)
    tracer = Tracer()
    try:
        target.setup()
        plain = workloads.Recorder()
        _settle()
        start = time.perf_counter()
        target.run(plain, count=count)
        untraced_s = time.perf_counter() - start - plain.paused

        rec = workloads.Recorder(tracer)
        with tracer:
            tracer.request = "setup"
            target.setup(tracer)
            _settle()
            first, before = tracer.mark(), tracer.counters()
            start = time.perf_counter()
            target.run(rec, count=count)
            traced_s = time.perf_counter() - start - rec.paused
            window, after = (first, tracer.mark()), tracer.counters()
        journal_bytes = target.journal_written()
        answers = target.check(rec, seed)
        rec.absorb(plain)
        built = target.built
        dist = target.dist_counters()
    finally:
        target.close()
    if trace_path is not None:
        tracer.dump(trace_path)

    delta = {k: after[k] - before[k] for k in after}
    stats = rec.query_stats
    mutations = len(rec.latency["register"]) + len(rec.latency["deregister"])
    metrics = {}
    for name, row in tracer.ledger().items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    metrics.update({
        "broker.compile.hit_ratio": (
            _ratio(delta["compile_hits"], delta["compile_requests"]), "ratio"),
        "broker.plan_cache.hit_ratio": (
            _ratio(delta["plan_hits"], delta["plan_requests"]), "ratio"),
        "index.candidates_per_permit": (
            _ratio(stats["candidates"], stats["permitted"]), "ratio"),
        "index.prune_ratio": (
            1.0 - _ratio(stats["candidates"], stats["relational_matches"])
            if stats["relational_matches"] else 0.0, "ratio"),
        "core.decide.permit_ratio": (
            _ratio(stats["permitted"], stats["checked"]), "ratio"),
        "projection.state_ratio": (
            _ratio(delta["selected_states"], delta["full_states"]), "ratio"),
        "stream.deliveries_per_event": (
            _ratio(rec.deliveries, rec.ingest_records), "ratio"),
        "broker.fsyncs_per_mutation": (
            _ratio(delta["fsyncs"], mutations), "ratio"),
        "broker.journal.bytes_per_append": (
            _ratio(journal_bytes, delta["journal_appends"]), "B"),
        "dist.wait_s": (tracer.wait_seconds(window), "s"),
        "dist.rpc.retries": (dist["retries"], "count"),
        "dist.breaker.trips": (dist["trips"], "count"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    })
    # span time against the program's own clocks
    for span, field in CLOCKS_REGISTER:
        clock = sum(getattr(s, field) for s in built)
        spent = tracer.total(span, "broker.register", target.registration_spans)
        metrics[f"clock.{span}"] = (_ratio(spent, clock), "ratio")
    for span, field in CLOCKS_QUERY:
        spent = tracer.total(span, span_range=window)
        metrics[f"clock.{span}"] = (_ratio(spent, stats[field]), "ratio")
    return {
        "metrics": metrics,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "report": {
            "inputs_sha256": gen.digest(inputs),
            "answers_sha256": gen.digest(answers),
            "ops": count,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "spans": len(tracer.spans),
        },
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             scale: str = "full", trace_path: Path | None = None) -> dict:
    """One run in a scratch directory inside the checkout."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        if trace:
            return traced(workload, seed, scale, workdir, trace_path)
        return measure(workload, seed, seconds, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(out: dict, names) -> dict:
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": out["metrics"][name][0],
                   "unit": out["metrics"][name][1]}
            for name in names
        },
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    _import_package()

    trace_path = None
    if args.trace:
        trace_dir = ROOT / ".bench_traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    out = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                   trace_path=trace_path)
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    for message in out["failures"]:
        print(f"FAILED: {message}")
    report = {"workload": args.workload, "seed": args.seed, **out["report"]}
    print("report:", json.dumps(report, sort_keys=True))
    names = tuple(out["metrics"]) if args.trace else END_TO_END
    print(json.dumps(result_line(out, names)))
    return 0 if out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
