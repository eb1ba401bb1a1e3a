"""The repository's benchmark: three workloads, two clocks, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fio-mgsp-mixed --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 48

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
alternates untraced and traced rounds and reports the per-layer
metrics instead (see ``perfbench/README.md``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output, determinism and
conservation check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: metrics the --trace 0 JSON carries, all on the host clock: name ->
#: unit. Every one is defined on every workload; "op" is a fio operation,
#: a service request or a swept crash point.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_tail": "us",
    "peak_rss_mb": "MB",
}

#: virtual-clock end-to-end metrics per workload; deterministic per seed
VIRTUAL = {
    "fio-mgsp-mixed": ("virt_mb_s", "virt_op_ns_p50", "virt_op_ns_p99", "write_amp"),
    "service-1000t": ("virt_mb_s", "write_amp"),
    "crashsweep-all": (),
}


def tail_percentile(nops: int) -> int:
    """The highest of p99/p90 with at least ten ops beyond it (p50 if neither)."""
    for pct in (99, 90):
        if nops * (100 - pct) >= 1000:
            return pct
    return 50


def _import_program():
    """Put the program and this package on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {ROOT / 'src'}\n")
        raise SystemExit(2)
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _round(workload, seed: int, tracer=None):
    """One set-up + measured round, traced when *tracer* is given;
    returns (setup_s, RoundResult, wall_s)."""
    gc.collect()
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        state = workload.setup(seed)
        setup_s = perf_counter() - t0
        result = workload.measure(state)
        del state
    return setup_s, result, perf_counter() - t0


class Outcome:
    """What one workload run reports."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        #: extra human-readable rows: (name, value, unit, clock)
        self.rows: list = []

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


def _check_exact(outcome: Outcome, first: dict, other: dict, what: str) -> None:
    if other != first:
        diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
        outcome.errors.append(f"determinism: {what} differs in {', '.join(diff)}")


def _tally(outcome: Outcome, result) -> None:
    outcome.attempted += result.attempted
    outcome.failed += result.failed
    for message in result.failures[:5]:
        outcome.errors.append(message)


def _over_budget(outcome: Outcome, done: int, planned: int, spent: float,
                 seconds: float, what: str) -> bool:
    """True, and a failure recorded, once *spent* exceeds the budget."""
    if spent <= seconds:
        return False
    outcome.errors.append(
        f"budget: {done} of {planned} {what} rounds took {spent:.1f} s, "
        f"over --seconds {seconds:g}"
    )
    return True


def run_untraced(workload, seed: int, seconds: float) -> Outcome:
    """The workload's fixed number of rounds (``--seconds`` caps their
    measured time; exceeding it fails the run); end-to-end metrics.

    Every round repeats the same ops, so each op has one host time per
    round. The machine's speed drifts (shared vCPUs run 20% slower for
    tens of seconds at a time), and interference only ever adds time, so
    an op's host time is the fastest of its repetitions; the percentiles
    are over ops, and ``ops_per_s`` divides the ops by the summed op and
    phase times. The number of repetitions is fixed per workload and
    size, so a slower or faster host changes the sample, not the
    estimator.
    """
    from repro.obs.registry import percentile

    outcome = Outcome(workload.name)
    planned = workload.size["rounds"]
    setups, op_rounds, other_rounds = [], [], []
    first = None
    peak_rss = 0.0
    measured = 0.0
    for _ in range(planned):
        setup_s, result, _ = _round(workload, seed)
        _tally(outcome, result)
        if first is None:
            first = result.exact
            # one round's footprint; later rounds only add allocator drift
            peak_rss = _peak_rss_mb()
        else:
            _check_exact(outcome, first, result.exact, f"round {len(setups)}")
        setups.append(setup_s)
        op_rounds.append(result.op_s)
        other_rounds.append(result.other_s)
        measured += result.wall_s
        if _over_budget(outcome, len(setups), planned, measured, seconds, "measured"):
            break
    extra_setups = workload.size.get("setups", planned) - planned
    for _ in range(extra_setups if len(setups) == planned else 0):
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(seed)
        setups.append(perf_counter() - t0)
        del state
    if len({len(r) for r in op_rounds}) != 1 or len({len(r) for r in other_rounds}) != 1:
        outcome.errors.append("determinism: rounds ran different numbers of ops")
        op_rounds = op_rounds[:1]
        other_rounds = other_rounds[:1]
    op_s = [min(times) for times in zip(*op_rounds)]
    busy_s = sum(op_s) + sum(min(times) for times in zip(*other_rounds))
    us = [s * 1e6 for s in op_s]
    tail = tail_percentile(len(us))
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_s) / busy_s,
        "op_us_p50": percentile(us, 50),
        "op_us_tail": percentile(us, tail),
        "peak_rss_mb": peak_rss,
    }
    outcome.metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
    }
    rows = [(name, values[name], unit, "host") for name, unit in END_TO_END.items()]
    if workload.name == "crashsweep-all":
        # the crash sweep's own names: images checked per second, ms per point
        rows += [
            ("images_per_s", values["ops_per_s"] * 3, "1/s", "host"),
            ("point_ms_p50", values["op_us_p50"] / 1e3, "ms", "host"),
            (f"point_ms_p{tail}", values["op_us_tail"] / 1e3, "ms", "host"),
        ]
    else:
        rows.append((f"op_us_p{tail}", values["op_us_tail"], "us", "host"))
    rows.append(("ops_timed", len(us), "count", "-"))
    for name in VIRTUAL[workload.name]:
        rows.append((name, first[name], COUNTER_UNITS[name], "virtual"))
    rows.append(("fail_frac", outcome.failed / max(1, outcome.attempted), "ratio", "-"))
    rows.append(("rounds", len(op_rounds), "count", "-"))
    rows.append(("measured_s", measured, "s", "host"))
    outcome.rows = rows
    return outcome


def _hit_rate(hits, misses) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(exact: dict, tracer_means: dict, names) -> dict:
    """Assemble the per-layer metric dict (name -> (value, unit))."""
    from perfbench.tracing import BOUNDARIES, LAYERS

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer_means[f"self.{layer}"], "s")
    for boundary in BOUNDARIES:
        out[f"{boundary}.calls"] = (tracer_means[f"calls.{boundary}"], "count")
        out[f"{boundary}.host_s"] = (tracer_means[f"incl.{boundary}"], "s")
    for key in ("traced_wall_s", "untraced_wall_s", "unattributed_s", "trace_overhead_s"):
        out[key] = (tracer_means[key], "s")
    out["core.fast_hit_rate"] = (
        _hit_rate(exact.get("core.fast_hits", 0), exact.get("core.fast_misses", 0)),
        "ratio",
    )
    out["core.mst_hit_rate"] = (
        _hit_rate(exact.get("core.mst_hits", 0), exact.get("core.mst_misses", 0)),
        "ratio",
    )
    for name, unit in COUNTER_UNITS.items():
        out[name] = (exact.get(name, 0), unit)
    return {n: out[n] for n in names}


#: exact counters carried into the per-layer output (0 where the
#: workload does not reach the layer)
COUNTER_UNITS = {
    "fsapi.api_bytes_written": "B",
    "fsapi.api_bytes_read": "B",
    "nvm.stores": "count",
    "nvm.stored_bytes": "B",
    "nvm.flush_calls": "count",
    "nvm.flushed_lines": "count",
    "nvm.fences": "count",
    "nvm.redundant_flushes": "count",
    "nvm.redundant_fences": "count",
    "sim.virt_io_ns": "ns",
    "sim.virt_compute_ns": "ns",
    "sim.replay.channel_wait_ns": "ns",
    "sim.replay.blocked_acquires": "count",
    "sim.replay.makespan_ns": "ns",
    "service.admitted": "count",
    "service.rejected": "count",
    "service.errors": "count",
    "service.short_read_bytes": "B",
    "crashsweep.points": "count",
    "crashsweep.images": "count",
    "crashsweep.events": "count",
    "crashsweep.unfenced_words": "count",
    "crashsweep.violations": "count",
    "virt_mb_s": "MB/s",
    "virt_op_ns_p50": "ns",
    "virt_op_ns_p99": "ns",
    "write_amp": "ratio",
}


def run_traced(workload, seed: int, seconds: float, per_layer_names, spans_path=None) -> Outcome:
    """The workload's fixed number of traced rounds, each after an
    untraced one (``--seconds`` caps the traced time); per-layer host
    metrics are means per traced round, counters come from the untraced
    rounds."""
    from perfbench.tracing import LAYERS, Tracer, self_times_from_spans

    outcome = Outcome(workload.name)
    planned = workload.size["traced_rounds"]
    first = None
    sums: dict = {}
    rounds = 0
    traced_total = 0.0
    while rounds < planned:
        _, plain, untraced_wall = _round(workload, seed)
        tracer = Tracer(record_spans=rounds == 0)
        _, traced, _ = _round(workload, seed, tracer)
        for result in (plain, traced):
            _tally(outcome, result)
        if first is None:
            first = plain.exact
        else:
            _check_exact(outcome, first, plain.exact, f"untraced round {rounds}")
        _check_exact(outcome, first, traced.exact, f"traced round {rounds}")
        parts = {f"self.{layer}": s for layer, s in tracer.self_times().items()}
        unattributed = tracer.unattributed_s()
        if unattributed < 0 or any(v < 0 for v in parts.values()):
            outcome.errors.append(
                f"conservation: negative self time or residual ({unattributed:.6f} s)"
            )
        # the residual is measured on its own (time with no span open), so
        # this sum checks the wrapper's self-time bookkeeping
        booked = sum(parts.values()) + unattributed
        if abs(booked - tracer.wall_s) > 1e-6 * max(1.0, tracer.wall_s):
            outcome.errors.append(
                f"conservation: self times + unattributed = {booked:.6f} s, "
                f"traced wall {tracer.wall_s:.6f} s"
            )
        parts.update({f"calls.{b}": n for b, n in tracer.boundary_calls.items()})
        parts.update({f"incl.{b}": s for b, s in tracer.boundary_s.items()})
        parts["traced_wall_s"] = tracer.wall_s
        parts["untraced_wall_s"] = untraced_wall
        parts["unattributed_s"] = unattributed
        parts["trace_overhead_s"] = tracer.wall_s - untraced_wall
        for key, value in parts.items():
            sums[key] = sums.get(key, 0.0) + value
        if rounds == 0:
            recomputed = self_times_from_spans(tracer.sites, {
                "site": tracer.span_site, "parent": tracer.span_parent,
                "start_s": tracer.span_start, "end_s": tracer.span_end,
            })
            for layer in LAYERS:
                online = parts[f"self.{layer}"]
                if abs(recomputed[layer] - online) > 1e-6 * max(1.0, tracer.wall_s):
                    outcome.errors.append(
                        f"conservation: {layer} self time {online:.6f} s online, "
                        f"{recomputed[layer]:.6f} s from spans"
                    )
            if spans_path is not None:
                tracer.write_spans(spans_path)
        del tracer
        rounds += 1
        traced_total += parts["traced_wall_s"]
        if _over_budget(outcome, rounds, planned, traced_total, seconds, "traced"):
            break
    means = {key: value / rounds for key, value in sums.items()}
    metrics = per_layer_metrics(first, means, per_layer_names)
    outcome.metrics = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    outcome.rows = [(n, v, u, _clock(n, u)) for n, (v, u) in metrics.items()]
    outcome.rows.append(("rounds", rounds, "count", "-"))
    return outcome


def _clock(name: str, unit: str) -> str:
    if unit == "s":
        return "host"
    if unit in ("ns", "MB/s") or name == "write_amp":
        return "virtual"
    return "exact"


def _print_table(outcome: Outcome, trace: bool) -> None:
    print(f"== {outcome.name} ({'traced: per-layer' if trace else 'end-to-end'})")
    for name, value, unit, clock in outcome.rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {text:>14s} {unit:6s} {clock}")
    print(
        f"  attempted={outcome.attempted} failed={outcome.failed} "
        f"fail_frac={outcome.failed / max(1, outcome.attempted):.6g}"
    )
    for message in outcome.errors[:10]:
        print(f"  ERROR {message}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    _import_program()
    from perfbench.workloads import WORKLOAD_CLASSES

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOAD_CLASSES) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=48.0,
                        help="cap on the measured time; the run fails if its rounds exceed it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = load_spec()
    per_layer_names = [m["name"] for m in spec["per_layer"]]
    names = sorted(WORKLOAD_CLASSES) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        workload = WORKLOAD_CLASSES[name](args.size)
        if args.trace:
            spans = OUT_DIR / f"spans-{name}"
            outcome = run_traced(workload, args.seed, args.seconds, per_layer_names, spans)
        else:
            outcome = run_untraced(workload, args.seed, args.seconds)
        _print_table(outcome, bool(args.trace))
        outcomes.append(outcome)

    if len(outcomes) == 1:
        metrics = outcomes[0].metrics
    else:
        metrics = {
            f"{o.name}.{key}": value for o in outcomes for key, value in o.metrics.items()
        }
    correct = all(o.correct for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
