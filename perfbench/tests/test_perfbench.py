"""Tests of the broker benchmark itself, on tiny inputs.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs as gen
from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: end-to-end metrics each workload prints, with their units
PRINTED = {
    "serve": {"restart_s": "s", "ingest_events_per_s": "events/s",
              "stored_bytes_per_user_byte": "ratio"},
    "churn": {"restart_s": "s", "register_p50_ms": "ms",
              "register_p90_ms": "ms", "checkpoint_p50_ms": "ms",
              "stored_bytes_per_user_byte": "ratio",
              "write_bytes_per_user_byte": "ratio"},
    "sharded": {"ingest_events_per_s": "events/s"},
}
COMMON = {"setup_s": "s", "ops_per_s": "ops/s", "query_p50_ms": "ms",
          "query_p99_ms": "ms", "peak_rss_mb": "MB",
          "failed_op_ratio": "ratio of attempted ops"}


def tiny(workload: str, seconds: float = 0.3) -> dict:
    return run.run_once(workload, 7, seconds, False, "tiny")


def test_benchmark_json_matches_the_runner():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert tuple(names) == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["unit"] == COMMON[metric["name"]]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    out = tiny(workload)
    expected = {**COMMON, **PRINTED[workload]}
    assert {k: unit for k, (_, unit) in out["metrics"].items()} == expected
    assert out["failed"] == 0, out["failures"]
    line = run.result_line(out, run.END_TO_END)
    assert line["correct"] is True
    assert all(line["metrics"][m]["value"] > 0 for m in run.END_TO_END)
    assert len(out["report"]["setups_s"]) == run.SETUPS
    # churn's reopens after checkpoints are kept out of the window
    assert (out["report"]["paused_s"] > 0) == (workload == "churn")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_the_whole_ledger(workload):
    out = run.run_once(workload, 7, 0, True, "tiny")
    assert out["failed"] == 0, out["failures"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in out["metrics"].items()} == units
    calls = {k[:-len(".calls")] for k, (v, _) in out["metrics"].items()
             if k.endswith(".calls") and v}
    assert "core.decide_object" not in calls
    assert {"broker.register", "broker.query", "core.decide"} <= calls
    if workload == "sharded":
        assert {"dist.client", "dist.server", "dist.merge"} <= calls
    if workload == "churn":
        assert {"broker.journal", "broker.save", "index.remove"} <= calls
        assert out["metrics"]["broker.journal.bytes_per_append"][0] > 0


def test_sharded_answers_equal_serve():
    serve, sharded = tiny("serve"), tiny("sharded")
    assert serve["report"]["inputs_sha256"] == sharded["report"]["inputs_sha256"]
    assert serve["report"]["answers_sha256"] == sharded["report"]["answers_sha256"]


def test_a_dropped_contract_fails_the_run(monkeypatch):
    query = workloads.ContractDatabase.query

    def drop_one(db, text, options=None):
        outcome = query(db, text, options)
        if options is not None and options.use_planner and outcome.contract_names:
            outcome.contract_names = outcome.contract_names[1:]
        return outcome

    monkeypatch.setattr(workloads.ContractDatabase, "query", drop_one)
    out = tiny("serve")
    assert out["failed"] > 0
    assert out["metrics"]["failed_op_ratio"][0] > 0
    assert run.result_line(out, run.END_TO_END)["correct"] is False


def test_durability_check_fails_on_a_cut_journal(tmp_path):
    target = workloads.make("churn", gen.generate("churn", 7, "tiny"),
                            tmp_path)
    target.setup()
    rec = workloads.Recorder()
    target.run(rec, count=5)
    target.check(rec, 7)
    assert rec.failed == 0, rec.failures
    target.close()

    journal = target.directory / "journal.jsonl"
    data = journal.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    assert last > 0
    journal.write_bytes(data[:last + (len(data) - last) // 2])
    reopened = workloads.journal_module.open_database(target.directory)
    try:
        assert target.verify(reopened)
    finally:
        reopened.journal.close()


@pytest.mark.xfail(strict=True, reason=(
    "save_database renumbers contract ids, but journal records keep the "
    "live database's ids, so replay after a checkpoint drops mutations"))
def test_replay_after_checkpoint_keeps_later_mutations(tmp_path):
    """The defect churn's reopen-after-checkpoint works around: once the
    package keeps ids in step, this passes and the reopen can go."""
    db = workloads.journal_module.open_database(tmp_path)
    ids = [db.register(f"k{i}", ["G !e1", "F e2"]).contract_id
           for i in range(4)]
    db.deregister(ids[0])
    db.deregister(ids[1])
    workloads.persist.save_database(db, tmp_path)
    db.deregister(ids[2])
    db.register("k4", ["F e3"])
    db.journal.close()
    reopened = workloads.journal_module.open_database(tmp_path)
    try:
        assert sorted(c.name for c in reopened.contracts()) == ["k3", "k4"]
    finally:
        reopened.journal.close()


def test_inputs_are_a_pure_function_of_workload_and_seed():
    first = gen.generate("serve", 3, "tiny")
    assert gen.digest(first) == gen.digest(gen.generate("serve", 3, "tiny"))
    assert gen.digest(first) == gen.digest(gen.generate("sharded", 3, "tiny"))
    assert gen.digest(first) != gen.digest(gen.generate("serve", 4, "tiny"))
    probe = ("import sys, perfbench.inputs; "
             "sys.exit(any(m.split('.')[0] == 'repro' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", probe], cwd=ROOT).returncode == 0


def test_runner_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
