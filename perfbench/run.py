"""Benchmark of polygonspace: one workload, one seed, one run.

    python3 perfbench/run.py --workload census|ring|queries --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.  The
run makes its seeded inputs once, sets up its workload several times (fresh
import, binding the inputs, cache warm-up), then repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checking every output
against the oracles.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The line before it carries the workload's own
figures and the machine; the full record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-ups per run: more where a set-up is short, so that its median rests on
# about a second of samples; a fixed count keeps peak RSS comparable.
SETUP_REPEATS = {"census": 30, "ring": 30, "queries": 3}
WORKLOADS = ("census", "ring", "queries")
# The speed of the 2-core machine this benchmark was built on switches
# between two states about 1.6x apart, each lasting seconds to minutes, in
# wall and CPU time alike.  Operation
# times are therefore also reported at the speed of a fixed reference loop,
# sampled next to the operations: raw time x REFERENCE_S / reference time.
REFERENCE_S = 0.008  # the reference loop's time on the fast state of a 2-core machine
GAUGE_PERIOD_S = 0.2

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads as wls  # noqa: E402


def fresh_import():
    """Import polygonspace anew, as a new process would."""
    for name in [m for m in sys.modules if m == "polygonspace" or m.startswith("polygonspace.")]:
        del sys.modules[name]
    lib = importlib.import_module("polygonspace")
    importlib.import_module("polygonspace.cli")
    return lib


MAKE = {"census": wls.make_census, "ring": wls.make_ring, "queries": wls.make_queries}


def set_up(name: str, inputs: dict, tracer: layers.Tracer, traced: bool = False) -> wls.Workload:
    """Import afresh and bind the seeded inputs to the new package, warming
    its caches; with ``traced``, the tracer is installed before the binding."""
    lib = fresh_import()
    clear = lib.volume.volume_polynomial.cache_clear
    if traced:
        tracer.install()
    if name == "census":
        return wls.bind_census(lib, inputs, clear, tracer.count)
    if name == "ring":
        return wls.bind_ring(lib, inputs, clear, tracer.count)
    return wls.bind_queries(lib, inputs)


def reference_work() -> Fraction:
    """Fixed pure-Python work of the program's kind: rationals, tuples, a dict."""
    total, table = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(i % 97 + 1, i % 89 + 3)
        table[i, i % 7] = total
    return total


class SpeedGauge:
    """Machine speed, from the reference loop timed at most every GAUGE_PERIOD_S."""

    def __init__(self) -> None:
        self.reference_s: list[float] = []
        self._next = 0.0
        reference_work()  # the first pass in a process runs slow; not a sample

    def factor(self) -> float:
        """REFERENCE_S / the latest reference time (1.0 at the nominal speed)."""
        if perf_counter() >= self._next:
            start = perf_counter()
            reference_work()
            self.reference_s.append(perf_counter() - start)
            self._next = perf_counter() + GAUGE_PERIOD_S
        return REFERENCE_S / self.reference_s[-1]


class Runner:
    """Runs rounds of one workload and keeps every sample."""

    def __init__(self, workload: wls.Workload, gauge: SpeedGauge) -> None:
        self.wl = workload
        self.gauge = gauge
        self.samples: dict[str, list[float]] = {}  # raw seconds per operation kind
        self.scaled: dict[str, list[float]] = {}  # the same at the reference speed
        self.units: dict[str, int] = {}
        self.round_s: list[float] = []  # busy time of each round, at the reference speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_round(self) -> None:
        busy = 0.0
        for op in self.wl.ops:
            self.attempted += 1
            factor = self.gauge.factor()
            start = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                busy += (perf_counter() - start) * factor
                self.failed += 1
                self.problems.append(f"{op.kind} failed: {type(exc).__name__}: {exc}")
                continue
            took = perf_counter() - start
            busy += took * factor
            self.samples.setdefault(op.kind, []).append(took)
            self.scaled.setdefault(op.kind, []).append(took * factor)
            if op.units is not None:
                self.units[op.kind] = self.units.get(op.kind, 0) + op.units(out)
            try:
                self.problems += op.check(out)
            except Exception as exc:  # output not in the documented shape
                self.problems.append(f"{op.kind} output unreadable: {type(exc).__name__}: {exc}")
        self.round_s.append(busy)

    def run_for(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while True:
            self.run_round()
            if perf_counter() >= deadline:
                return

    @staticmethod
    def pooled(samples: dict[str, list[float]]) -> list[float]:
        return [s for v in samples.values() for s in v]


def _median(values: list[float]) -> float:
    """Median, or 0 when every operation failed (the run is then reported as failed)."""
    return statistics.median(values) if values else 0.0


def figures(name: str, runner: Runner) -> dict:
    """The workload's own figures: rates and latencies of its operation kinds,
    at the reference speed."""
    s = runner.scaled
    out: dict[str, dict] = {}
    if name == "census":
        for kind, metric in (("chambers", "chambers_per_s"), ("validate", "validated_per_s")):
            if s.get(kind):
                out[metric] = {"value": runner.units[kind] / sum(s[kind]), "unit": "1/s"}
    elif name == "ring":
        for kind, v in sorted(s.items()):
            out[f"{kind}_p50_s"] = {"value": statistics.median(v), "unit": "s", "samples": len(v)}
    else:
        every = runner.pooled(s)
        if not every:
            return out
        out["query_p50_ms"] = {"value": 1000 * statistics.median(every), "unit": "ms", "samples": len(every)}
        if len(every) >= 100:  # at least ten samples lie beyond p90
            p90 = statistics.quantiles(every, n=10)[-1]
            out["query_p90_ms"] = {"value": 1000 * p90, "unit": "ms", "samples": len(every)}
        for kind, v in sorted(s.items()):
            out[f"{kind}_p50_ms"] = {"value": 1000 * statistics.median(v), "unit": "ms", "samples": len(v)}
    return out


def machine() -> dict:
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "polygonspace").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": sha, "src_lines": src_lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polygonspace" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'polygonspace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = layers.Tracer()
    gauge = SpeedGauge()
    # The inputs and the oracles' expected values are the same for every
    # set-up of one seed, so they are made once and kept out of its time.
    inputs = MAKE[args.workload](args.seed)
    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS[args.workload]):
        wl = None
        gc.collect()  # one live copy of the package at a time
        factor = gauge.factor()
        start = perf_counter()
        wl = set_up(args.workload, inputs, tracer)
        raw_setup_s.append(perf_counter() - start)
        setup_s.append(raw_setup_s[-1] * factor)

    runner = Runner(wl, gauge)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": machine(), "setup_s": setup_s}
    if args.trace:
        # Untraced rounds first, then one more set-up with the tracer
        # installed, then the same rounds traced: the ratio of their median
        # round times is the tracing overhead.
        runner.run_for(args.seconds / 2)
        plain = list(runner.round_s)
        facts = runner.wl.facts
        runner.wl = None
        gc.collect()
        tracer.reset()
        runner.wl = set_up(args.workload, inputs, tracer, traced=True)
        runner.wl.facts = facts
        values = {f"setup.{k}": v for k, v in tracer.totals(1).items()}
        tracer.reset()
        runner.round_s.clear()
        runner.run_for(args.seconds / 2)
        traced = runner.round_s
        values.update(tracer.totals(len(traced)))
        values["trace.overhead_ratio"] = _median(traced) / _median(plain)
        metrics = {k: {"value": values.get(k, 0), "unit": layers.metric_unit(k)} for k in layers.metric_names()}
        record.update(untraced_round_s=plain, traced_round_s=traced)
    else:
        runner.run_for(args.seconds)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.fmean(runner.round_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "op_p50_ms": {"value": 1000 * _median(runner.pooled(runner.scaled)), "unit": "ms"},
        }
        record["round_s"] = runner.round_s
    speed = [REFERENCE_S / t for t in gauge.reference_s]
    raw = {"setup_s": statistics.median(raw_setup_s),
           "op_p50_ms": 1000 * _median(runner.pooled(runner.samples)),
           "machine_speed_p10_p50_p90": statistics.quantiles(speed, n=10)[::4] if len(speed) > 1 else speed}
    problems = runner.problems + runner.wl.final_problems()
    correct = not problems
    info = {"workload": args.workload, "rounds": len(runner.round_s),
            "figures": figures(args.workload, runner), "raw": raw, "machine": record["machine"]}
    record.update(info, problems=problems[:50], metrics=metrics,
                  samples=runner.samples, reference_s=gauge.reference_s)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
