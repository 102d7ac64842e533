"""primpairs benchmark: end-to-end and per-layer metrics of two workloads.

    python3 bench/run.py --workload scan|sampled|all|exhaustive
        --seed N --seconds S --trace 0|1

Run from the repository root.  A run starts one single-threaded worker
process (bench/worker.py) that runs passes of the workload for S seconds,
median over the passes; every run makes at least one pass.  Then a few
set-up-only processes are started: set-up time is the median over all
the process starts of the run.  Workers see no PRIMPAIRS_CACHE and work
in a fresh temp directory under .bench_tmp/, removed afterwards.

`all` runs the workloads BENCHMARK.json lists.  `exhaustive` is not one of
them: it is kept for runs by hand (see bench/NOTES.md).

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and the line
carries the per-layer metrics instead.  Spans of traced passes are written
to .bench_out/.  Lines before it are a readable report.  The exit code is 1
when a correctness check fails (the JSON says so) or a worker fails, 2 when
the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan", "sampled")  # the workloads BENCHMARK.json lists
BY_HAND = ("exhaustive",)  # too noisy on a shared host to bound; see NOTES
SETUP_STARTS = 7  # process starts per run whose set-up time is measured
RUN_LIMIT_S = 170  # a run must finish within this; workers are killed after


class WorkerFailed(RuntimeError):
    pass


def _units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds, its JSON report)."""
    env = {k: v for k, v in os.environ.items() if k != "PRIMPAIRS_CACHE"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the run's time limit")
    finally:
        if proc.returncode is None:  # timed out or interrupted: stop it
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    report = json.loads(out.splitlines()[-1])
    return report["ready_at"] - started, report


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 tmp: Path) -> dict:
    """One measuring worker that runs passes for `seconds` (untraced and,
    with `trace`, traced passes in turn), then set-up-only starts until
    SETUP_STARTS process starts have been timed."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    out_dir = ROOT / ".bench_out"
    spans = out_dir / f"spans-{name}-seed{seed}.jsonl"
    extra = []
    if trace:
        out_dir.mkdir(exist_ok=True)
        extra = ["--trace", "1", "--spans", str(spans)]
    setup, rep = _worker([*base, "--workdir", str(tmp / "run"),
                          "--seconds", str(seconds), *extra], deadline)
    setups = [setup]
    passes, tpasses = rep["passes"], rep["traced"]
    wall = _median(passes, "wall_s")
    every = passes + tpasses
    res = {
        "workload": name, "seed": seed, "passes": len(passes),
        "attempted": sum(p["attempted"] for p in every),
        "failures": [f for p in every for f in p["failures"]],
        "e2e": {
            "wall_s": wall,
            "items_per_s": statistics.median(
                p["items"] / p["wall_s"] for p in passes),
            "peak_rss_mb": rep["peak_rss_mb"],
            "setup_s": None,
        },
        "items": passes[0]["items"],
    }
    if trace:
        layers = {key: statistics.median(p["layers"][key] for p in tpasses)
                  for key in tpasses[0]["layers"]}
        res["traced_passes"] = len(tpasses)
        res["traced_wall_s"] = _median(tpasses, "wall_s")
        layers["trace_overhead_frac"] = res["traced_wall_s"] / wall - 1
        res["layers"] = layers
        res["pair_factor_ms"] = tpasses[0]["pair_factor_ms"]
        res["spans_file"] = str(spans.relative_to(ROOT))
    while len(setups) < SETUP_STARTS:
        setup, _ = _worker([*base, "--workdir", str(tmp / "setup"),
                            "--setup-only"], deadline)
        setups.append(setup)
    res["e2e"]["setup_s"] = statistics.median(setups)
    res["setup_starts"] = len(setups)
    return res


def report_lines(res: dict, units: dict) -> list[str]:
    e2e = res["e2e"]
    failed = len(res["failures"])
    lines = [f"workload {res['workload']}  seed {res['seed']}  "
             f"passes {res['passes']}",
             f"  wall_s       {e2e['wall_s']:12.4f} s    median of "
             f"{res['passes']} pass(es)",
             f"  items_per_s  {e2e['items_per_s']:12.2f} 1/s  "
             f"{res['items']} items per pass",
             f"  peak_rss_mb  {e2e['peak_rss_mb']:12.1f} MB",
             f"  setup_s      {e2e['setup_s']:12.4f} s    median of "
             f"{res['setup_starts']} process starts",
             f"  fail_frac    {failed / res['attempted']:12.4f}      "
             f"{failed} of {res['attempted']} checks failed"]
    lines += [f"  FAILED: {msg}" for msg in res["failures"][:20]]
    if "layers" in res:
        lines.append(f"  traced wall_s {res['traced_wall_s']:.4f} s, median "
                     f"of {res['traced_passes']} traced pass(es); spans in "
                     f"{res['spans_file']}")
        for key, value in sorted(res["layers"].items()):
            lines.append(f"  {key:34s} {value:14.6g} {units[key]}")
        tail = tracing.tail_percentile(res["pair_factor_ms"])
        if tail is None:
            lines.append("  pair factorisations: too few samples for a tail "
                         "percentile")
        else:
            pct, value, n = tail
            lines.append(f"  pair factorisations: p{pct:g} = {value:.3f} ms "
                         f"(n = {n}, the highest percentile with ten "
                         "samples beyond it)")
    return lines


def metrics_of(res: dict, trace: bool, units: dict) -> dict:
    values = res["layers"] if trace else res["e2e"]
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, *BY_HAND, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "primpairs" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
            try:
                results.append(run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), tmp))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    for res in results:
        print("\n".join(report_lines(res, units)))
    failed = sum(len(r["failures"]) for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0], bool(args.trace), units)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_of(r, bool(args.trace), units).items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
