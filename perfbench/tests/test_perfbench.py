"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.tracing import LAYERS, load_spans, self_times_from_spans
from perfbench.workloads import WORKLOAD_CLASSES, CrashsweepAll, FioMixed, Service1000

SPEC = run.load_spec()
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: workload-specific metric names, as printed in the table (name -> clock)
TABLE_NAMES = {
    "fio-mgsp-mixed": {
        "setup_s": "host", "ops_per_s": "host", "op_us_p50": "host", "op_us_tail": "host",
        "peak_rss_mb": "host", "virt_mb_s": "virtual", "virt_op_ns_p50": "virtual",
        "virt_op_ns_p99": "virtual", "write_amp": "virtual", "fail_frac": "-",
    },
    "service-1000t": {
        "setup_s": "host", "ops_per_s": "host", "peak_rss_mb": "host",
        "virt_mb_s": "virtual", "write_amp": "virtual", "fail_frac": "-",
    },
    "crashsweep-all": {
        "setup_s": "host", "images_per_s": "host", "point_ms_p50": "host",
        "peak_rss_mb": "host", "fail_frac": "-",
    },
}


def _main(capsys, *argv):
    code = run.main(["--size", "tiny", "--seed", "3", *argv])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    table = {}
    for line in out[:-1]:
        fields = line.split()
        if line.startswith("  ") and len(fields) == 4:
            table[fields[0]] = (fields[2], fields[3])
    return code, result, table


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail_percentile(4000) == 99
    assert run.tail_percentile(112) == 90
    assert run.tail_percentile(60) == 50


def test_spec_names_match_the_code():
    assert set(SPEC["paths"]) == {"perfbench"}
    assert E2E_UNITS == run.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_CLASSES)


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CLASSES))
def test_smoke_every_end_to_end_metric(capsys, workload):
    code, result, table = _main(capsys, "--workload", workload, "--seconds", "60")
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, clock in TABLE_NAMES[workload].items():
        assert name in table, name
        assert table[name][1] == clock


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CLASSES))
def test_smoke_every_per_layer_metric(capsys, workload):
    code, result, _ = _main(capsys, "--workload", workload, "--seconds", "60", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == LAYER_UNITS


def _planted_wrong_read(monkeypatch):
    from repro.core.file import MgspFile

    original = MgspFile.read
    calls = []

    def read(self, offset, length):
        data = original(self, offset, length)
        calls.append(offset)
        if len(calls) == 3 and data:
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    monkeypatch.setattr(MgspFile, "read", read)


def test_planted_wrong_read_raises_fail_frac(monkeypatch):
    _planted_wrong_read(monkeypatch)
    outcome = run.run_untraced(FioMixed("tiny"), seed=3, seconds=60)
    assert outcome.failed >= 1
    assert not outcome.correct
    rows = {name: value for name, value, _, _ in outcome.rows}
    assert rows["fail_frac"] > 0
    assert any("differs from the shadow copy" in e for e in outcome.errors)


def test_service_rejects_count_as_failures():
    workload = Service1000("tiny")
    state = workload.setup(3)
    for session in state["service"].sessions.values():
        # one token, refilled once a second: every later request is refused
        session.bucket.burst = session.bucket.tokens = session.bucket.rate = 1.0
    result = workload.measure(state)
    assert result.exact["service.rejected"] > 0
    assert result.failed == result.exact["service.rejected"]
    assert result.failures == []


def test_service_reads_move_real_bytes():
    workload = Service1000("tiny")
    result = workload.measure(workload.setup(3))
    assert result.failed == 0
    assert result.exact["fsapi.api_bytes_read"] > 0
    assert result.exact["service.short_read_bytes"] == 0


def test_service_short_reads_are_reported():
    """Reads past a tenant's end of file return fewer bytes than the
    service books; the benchmark counts the difference."""
    workload = Service1000("tiny")
    state = workload.setup(3)
    service = state["service"]
    for session in service.sessions.values():
        service.shards[session.shard].volume.set_size(session.handle.inode, 0)
    result = workload.measure(state)
    assert result.exact["service.short_read_bytes"] > 0


def test_service_admission_balance_is_checked(monkeypatch):
    from repro.service.admission import TokenBucket

    original = TokenBucket.admit
    offered = []

    def admit(self, now_ns, cost=1.0):
        # refuses every fifth request without counting the refusal
        offered.append(now_ns)
        return original(self, now_ns, cost) and len(offered) % 5 != 0

    monkeypatch.setattr(TokenBucket, "admit", admit)
    workload = Service1000("tiny")
    result = workload.measure(workload.setup(3))
    assert result.failed > 0
    assert any("submit said" in message for message in result.failures)


def test_rounds_are_fixed_and_seconds_is_a_cap():
    workload = FioMixed("tiny")
    outcome = run.run_untraced(workload, seed=3, seconds=60)
    rows = {name: value for name, value, _, _ in outcome.rows}
    assert outcome.correct and rows["rounds"] == workload.size["rounds"]
    over = run.run_untraced(workload, seed=3, seconds=0)
    assert not over.correct
    assert any(e.startswith("budget:") for e in over.errors)
    assert {name: value for name, value, _, _ in over.rows}["rounds"] == 1


def test_conservation_check_catches_lost_self_time(monkeypatch):
    from perfbench.tracing import Tracer

    original = Tracer.self_times

    def self_times(self):
        # drops a layer's self time, as a bookkeeping bug would
        times = original(self)
        times["nvm"] = 0.0
        return times

    monkeypatch.setattr(Tracer, "self_times", self_times)
    outcome = run.run_traced(FioMixed("tiny"), 3, 60, list(LAYER_UNITS))
    assert any(e.startswith("conservation: self times + unattributed") for e in outcome.errors)


def test_conservation_and_no_perturbation(tmp_path):
    spans = tmp_path / "spans"
    outcome = run.run_traced(FioMixed("tiny"), 3, 60, list(LAYER_UNITS), spans)
    # traced and untraced rounds agree on every virtual metric and counter
    assert outcome.errors == []
    metrics = {name: m["value"] for name, m in outcome.metrics.items()}
    parts = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["unattributed_s"]
    assert parts == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
    assert metrics["unattributed_s"] >= 0
    # the written spans reproduce the online self times
    header, columns = load_spans(spans)
    assert header["spans"] > 0
    recomputed = self_times_from_spans(header["sites"], columns)
    for layer in LAYERS:
        assert recomputed[layer] == pytest.approx(metrics[f"{layer}.self_s"], abs=1e-6)


def test_determinism_across_processes(tmp_path):
    """Two processes, same seed: identical virtual metrics and counters."""
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "service-1000t",
             "--size", "tiny", "--seed", "5", "--seconds", "60", "--trace", "1"],
            capture_output=True, text=True, timeout=120, cwd=run.ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        outputs.append({n: m["value"] for n, m in metrics.items() if m["unit"] != "s"})
    assert outputs[0] == outputs[1]


def test_crash_loop_matches_sweep_unit():
    """The benchmark's per-point loop gives the sweep's own verdicts."""
    from repro.crashsweep.sweep import sweep_unit

    workload = CrashsweepAll("tiny")
    state = workload.setup(4)
    state["plan"] = state["plan"][:2]
    result = workload.measure(state)
    reports = [sweep_unit(w.name, c, budget=1, seed=4, minimize=False)
               for w, c, _, _ in state["plan"]]
    assert result.exact["crashsweep.images"] == sum(r.images_checked for r in reports)
    assert result.exact["crashsweep.points"] == sum(len(r.points) for r in reports)
    assert result.exact["crashsweep.violations"] == sum(len(r.failures) for r in reports)
    assert result.exact["crashsweep.events"] == sum(r.census.events for r in reports)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fio-mgsp-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
