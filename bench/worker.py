"""One benchmark process: set up, run timed passes of one workload, report.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR
        [--seconds S] [--trace 0|1] [--spans PATH] [--setup-only]

run.py starts one of these per run, so every run pays the start-up costs a
user of the CLI pays.  After set-up the worker records the monotonic clock
(`ready_at`), so the parent can take set-up time from the moment it
started the process.  It then runs passes of the workload, each in a fresh
subdirectory of DIR, until S seconds have gone by, checks the outputs of
each pass, and prints one JSON object on stdout.  A further pass starts
only when it is expected to end within S seconds; the first always runs.

With `--trace 1` untraced and traced passes alternate (at least one of
each), and the traced ones add their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import primpairs  # noqa: E402
from primpairs import arith, verify  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _setup() -> workloads.References:
    """Reference tables (checksummed on load) and the trial-division prime
    table; imports happen before this, at process start."""
    if Path(primpairs.__file__).resolve().parent != ROOT / "src" / "primpairs":
        raise SystemExit(f"primpairs imported from {primpairs.__file__}, "
                         f"not from {ROOT / 'src'}")
    refs = workloads.load_references()
    arith.factor(2)  # the first factor() call builds the trial-division table
    return refs


def _one_pass(name: str, seed: int, refs, workdir: Path, recorder) -> dict:
    body, check = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True)
    gate = workloads.Gate()
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out, items = body(workdir, seed, refs)
        else:
            with tracing.installed(recorder):
                root = recorder.open(f"bench.{name}")
                try:
                    out, items = body(workdir, seed, refs)
                finally:
                    recorder.close(root)
    except (arith.FactorBudgetExceeded,
            verify.EnumerationBudgetExceeded) as exc:
        wall = time.perf_counter() - t0
        gate.check(False, f"budget exit: {exc}")
        out, items = None, 0
    else:
        wall = time.perf_counter() - t0
        check(gate, out, refs)
    result = {"wall_s": wall, "items": items}
    if recorder is not None:
        problems = tracing.check_spans(recorder.spans, wall)
        gate.check(not problems, "trace: " + "; ".join(problems))
        result["layers"] = tracing.layer_metrics(recorder)
        result["pair_factor_ms"] = tracing.pair_factor_ms(recorder.spans)
    result["attempted"] = gate.attempted
    result["failures"] = gate.failures
    return result


def run_passes(args, refs) -> tuple[list[dict], list[dict]]:
    """(untraced passes, traced passes) of one run; see the module doc."""
    plain, traced = [], []
    kinds = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    rounds = []  # seconds taken by each round of `kinds`
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= args.seconds):
        t = time.perf_counter()
        for with_trace in kinds:
            i = len(plain) + len(traced)
            recorder = (tracing.Recorder(f"{args.workload}-{args.seed}-{i}")
                        if with_trace else None)
            res = _one_pass(args.workload, args.seed, refs,
                            args.workdir / f"p{i}", recorder)
            (traced if with_trace else plain).append(res)
            if recorder is not None and args.spans is not None:
                tracing.write_spans(args.spans, recorder.spans,
                                    append=len(traced) > 1)
        rounds.append(time.perf_counter() - t)
    return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    refs = _setup()
    report = {"ready_at": time.monotonic()}
    if not args.setup_only:
        report["passes"], report["traced"] = run_passes(args, refs)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
