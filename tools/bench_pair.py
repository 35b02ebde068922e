"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/bench_pair.py --label NAME [--base REV]

Run from the repository root; it needs git and the standard library only.
Both sides are copied into a temporary directory first: REV (default HEAD)
with ``git archive``, the working tree as the files git tracks or would
track.  Then, for each workload, it runs ``perfbench/run.py --trace 0`` on
the two copies in ``PAIRS`` pairs, each run as long as ``BENCHMARK.json``'s
``run_seconds``, alternating which side runs first, the seed of pair k
being the k-th of ``SEEDS`` (cycled).
The end-to-end cases that no workload covers (``CASES``) are timed the same
way, ``CASE_PAIRS`` alternating pairs in a fresh interpreter each; a
sub-second case is timed in each pair as the median of ``SHORT_REPEATS``
processes run back to back on each side, since one start-up alone varies
by more than the differences to resolve.  Since
a machine's speed can switch between states (about 1.6x apart on the 2-core
machine this benchmark was built on), each case time is also scaled, as ``perfbench/run.py`` scales operation times, by
the median time of its reference loop, sampled around the case and every
``GAUGE_PERIOD_S`` while it runs: scaled = raw x ``REFERENCE_S`` /
reference time.  Every run has bytecode caching off.  These settings are
fixed so that every record is taken under the same conditions.

The result goes to ``BENCH_<NAME>.json`` at the root: for each workload and
metric the first quartile, median and third quartile of each side, and the
pairs the working tree won (strictly better in the direction
``BENCHMARK.json`` gives); for each case the same of ``raw_s``,
``scaled_s`` and ``reference_s``; every run's values; and each side's
commit and ``src/`` line count.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
WORKLOADS = ("census", "ring", "queries")
PAIRS = 10  # at least ten pairs, so that nine of ten can be read as a win
SEEDS = (1, 2, 3, 4, 5)
CASE_PAIRS = 5
SHORT_REPEATS = 5  # processes per side and pair for a sub-second case
REFERENCE_AROUND = 3  # reference loops right before and right after each case
# End-to-end commands timed outside the workloads, as CLI processes, with
# the number of processes per side and pair: the census and the validation
# at n = 6, single-point ring and betti at n = 7, 8, 9 (and both at n = 10),
# ring at n = 8, and betti and volume at n = 9, under affine:1, the
# wall-crossing betti at n = 16 on nearly equal lengths, and one intersection
# number at n = 12, which take 0.1-1 s each.
CLI = ["-m", "polygonspace.cli"]
POINTS = {7: "83,39,102,167,13,19,138", 8: "94,150,15,130,55,10,23,112",
          9: "150,15,130,55,10,23,112,108,18", 10: "150,15,130,55,10,23,112,108,18,78",
          12: "2275,1523,2519,1734,2628,2414,2930,2723,2515,2335,2888,2085"}
CASES = {
    "chambers_n6_counts_only_s": ([*CLI, "chambers", "--n", "6", "--counts-only"], 1),
    "validate_n6_s": ([*CLI, "validate", "--n", "6"], 1),
    **{f"ring_n{n}_s": ([*CLI, "ring", "--r", POINTS[n]], SHORT_REPEATS) for n in (7, 8, 9)},
    **{f"betti_apolar_n{n}_s": ([*CLI, "betti", "--r", POINTS[n], "--method", "apolar"], SHORT_REPEATS)
       for n in (7, 8, 9)},
    "betti_apolar_n10_s": ([*CLI, "betti", "--r", POINTS[10], "--method", "apolar"], 1),
    "ring_n10_s": ([*CLI, "ring", "--r", POINTS[10]], 1),
    "ring_affine_n8_s": ([*CLI, "ring", "--r", POINTS[8], "--convention", "affine:1"], SHORT_REPEATS),
    "betti_affine_n9_s": ([*CLI, "betti", "--r", POINTS[9], "--method", "apolar", "--convention", "affine:1"],
                          SHORT_REPEATS),
    "volume_affine_n9_s": ([*CLI, "volume", "--r", POINTS[9], "--convention", "affine:1"], SHORT_REPEATS),
    "betti_wallcross_n16_s": ([*CLI, "betti", "--r", ",".join(map(str, [*range(100, 115), 116])),
                               "--method", "wallcross"], SHORT_REPEATS),
    "intersect_n12_s": ([*CLI, "intersect", "--r", POINTS[12], "--alpha", "4,5,0,0,0,0,0,0,0,0,0,0"],
                        SHORT_REPEATS),
}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_base(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; returns its full sha."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest)
    return sha


def export_working_tree(dest: Path) -> None:
    """Copy the tracked and the untracked, not ignored, files into dest."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src" / "polygonspace").glob("*.py")))


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=_env(), capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} printed nothing: {done.stderr.strip()}")
    return json.loads(lines[-1])


def _load_perfbench_run():
    """perfbench/run.py as a module, for its reference loop."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.reference_work()  # the first pass in a process runs slow; not a sample
    return module


def _reference_s(bench) -> float:
    start = perf_counter()
    bench.reference_work()
    return perf_counter() - start


def time_case(tree: Path, argv: list[str], repeats: int, bench) -> dict[str, float]:
    """The median wall seconds of `repeats` fresh processes run back to back;
    the median time of the reference loop, run REFERENCE_AROUND times right
    before the first and right after the last and once every GAUGE_PERIOD_S
    while they run; and that wall time scaled to the reference speed.  A
    process's end is seen at most one loop late."""
    env = dict(_env(), PYTHONPATH=str(tree / "src"))
    samples = [_reference_s(bench) for _ in range(REFERENCE_AROUND)]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        with subprocess.Popen([sys.executable, *argv], cwd=tree, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
            while True:
                try:
                    proc.wait(timeout=bench.GAUGE_PERIOD_S)
                    break
                except subprocess.TimeoutExpired:
                    samples.append(_reference_s(bench))
        times.append(perf_counter() - start)
        if proc.returncode:
            raise RuntimeError(f"{' '.join(argv)} in {tree} exited with {proc.returncode}")
    raw = statistics.median(times)
    samples += [_reference_s(bench) for _ in range(REFERENCE_AROUND)]
    reference = statistics.median(samples)
    return {"raw_s": raw, "scaled_s": raw * bench.REFERENCE_S / reference, "reference_s": reference}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Quartiles per side and the pairs the change won, per metric."""
    out = {}
    for name in runs[0]["base"]:
        values = {side: [run[side][name] for run in runs] for side in SIDES}
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = sum(1 for b, c in zip(values["base"], values["change"]) if sign * (b - c) > 0)
        out[name] = {**{side: quartiles(values[side]) for side in SIDES},
                     "change_wins": wins, "pairs": len(runs)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        base_sha = export_base(args.base, trees["base"])
        export_working_tree(trees["change"])
        record: dict = {
            "label": args.label,
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "base": {"rev": args.base, "sha": base_sha, "src_lines": src_lines(trees["base"])},
            "change": {"parent_sha": base_sha, "src_lines": src_lines(trees["change"])},
            "pairs": PAIRS, "seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {},
        }
        for workload in WORKLOADS:
            runs, failed, correct = [], {side: 0 for side in SIDES}, True
            for k in range(PAIRS):
                seed = SEEDS[k % len(SEEDS)]
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    result = run_workload(trees[side], workload, seed, spec["run_seconds"])
                    run[side] = {name: m["value"] for name, m in result["metrics"].items()}
                    failed[side] += result["failed"]
                    correct = correct and result["correct"]
                runs.append(run)
                print(f"{workload} pair {k + 1}/{PAIRS} seed {seed}: "
                      + ", ".join(f"{s} wall_s {run[s].get('wall_s', 0):.4f}" for s in SIDES),
                      file=sys.stderr)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            record["workloads"][workload] = {
                "units": units, "correct": correct, "failed_ops": failed,
                "metrics": summarize(runs, better), "runs": runs,
            }
        record["cases"], bench = {}, _load_perfbench_run()
        record["reference_s_nominal"] = bench.REFERENCE_S
        for name, (case_argv, repeats) in CASES.items():
            runs = []
            for k in range(CASE_PAIRS):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                runs.append({"first": order[0],
                             **{s: time_case(trees[s], case_argv, repeats, bench) for s in order}})
            print(f"{name}: " + ", ".join(f"{s} scaled {statistics.median(r[s]['scaled_s'] for r in runs):.3f} s"
                                          for s in SIDES), file=sys.stderr)
            record["cases"][name] = {"command": " ".join(["python3", *case_argv]), "unit": "s",
                                     "processes_per_side": repeats, **summarize(runs, {}), "runs": runs}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
