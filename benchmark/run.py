"""Benchmark of the presstopo solver, run from the root of a source checkout.

    python3 benchmark/run.py --workload piston3-paper --seconds 15 --trace 0
    python3 benchmark/run.py                  # every workload, each in a fresh process
    python3 benchmark/run.py --trace 1        # per-layer metrics of every workload
    python3 benchmark/run.py --repeat 5       # median and quartiles of each metric
    python3 benchmark/run.py --self-check     # every check must fail on corrupted results

One workload run repeats whole rounds until ``--seconds`` have passed (at
least one round), checks every round's outputs and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The operations counted are the output checks, one per check and round; a
round that raises fails all of its checks.  ``--seed`` is accepted for a
uniform command line and is not used: no workload draws random inputs.
"""

from __future__ import annotations

import os

# one BLAS thread, so that a 2-core machine shared with other work stays steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("piston3-paper", "arch2-desk", "piston3-gradcheck")
END_TO_END = {"setup_s": "s", "iter_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload in this process (default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted and unused; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure whole rounds until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times and print "
                             "the median and quartiles of each metric")
    parser.add_argument("--self-check", action="store_true",
                        help="feed the checks corrupted results")
    return parser.parse_args(argv)


class Runner:
    """Rounds of one workload, with the operation counts of their checks."""

    def __init__(self, workload, out_dir):
        self.workload, self.out_dir = workload, out_dir
        self.attempted = self.failed = 0

    def rounds(self, seconds):
        """Whole rounds until ``seconds`` passed, at least one; stops on a crash."""
        done = []
        start = time.perf_counter()
        while True:
            rnd = self._round()
            if rnd is None:
                break
            done.append(rnd)
            if time.perf_counter() - start >= seconds:
                break
        return done

    def _round(self):
        from checks import run_checks

        n_checks = len(self.workload.check_fns)
        self.attempted += n_checks
        try:
            timing, subject, written = self.workload.execute(self.out_dir)
            outcome = run_checks(self.workload.check_fns, subject, written)
        except Exception:
            traceback.print_exc()
            self.failed += n_checks
            return None
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        for name, (passed, detail) in outcome.items():
            self.failed += not passed
            print(f"check {'ok' if passed else 'FAILED'}: {name}: {detail}",
                  file=sys.stderr)
        return timing


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def run_workload(name, seconds, trace):
    """Run one workload in this process; returns the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runner = Runner(workload, ROOT / ".benchmark_out" / f"{name}-{os.getpid()}")
    if trace:
        metrics = _traced(workload, runner, seconds)
    else:
        setup = []
        for _ in range(workload.setup_reps):
            start = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - start)
        done = runner.rounds(seconds)
        # peak resident set of this process alone, in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": _median(setup),
            "iter_s": _median([s for r in done for s in r.steps]),
            "run_s": _median([r.run_s for r in done]),
            "peak_rss_mb": peak,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced(workload, runner, seconds):
    """Traced set-ups and rounds; the end-to-end figures come from untraced runs."""
    from spans import Tracer, layer_metrics, span_cost

    with Tracer() as tracer:
        for _ in range(workload.setup_reps):
            workload.setup()
        done = runner.rounds(seconds)
    return layer_metrics(
        tracer.spans, [w for r in done for w in r.windows], workload.iterations,
        _median([s for r in done for s in r.steps]), span_cost(),
    )


def _child(name, args, seed):
    """Run one workload in a fresh process; returns its result object or None."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _report(name, result):
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:>16.6g} {entry['unit']}")


def run_all(args):
    ok = True
    for name in WORKLOAD_NAMES:
        result = _child(name, args, args.seed)
        ok = ok and result is not None and result["correct"]
        if result is not None:
            _report(name, result)
    return 0 if ok else 1


def run_repeat(args):
    """Each workload ``--repeat`` times on seeds 1..N; median and quartiles."""
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    ok = True
    for name in names:
        results = [_child(name, args, seed) for seed in range(1, args.repeat + 1)]
        valid = [r for r in results if r is not None]
        ok = ok and len(valid) == len(results) and all(r["correct"] for r in valid)
        shares = sorted({r["failed"] / r["attempted"] for r in valid})
        print(f"{name}: {len(valid)} runs, failed shares {shares}")
        for r in valid:
            print("  run:", " ".join(f"{k}={v['value']:.6g}"
                                    for k, v in r["metrics"].items()))
        if len(valid) < 2:
            continue
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'(q3-q1)/median':>15s}")
        for metric, entry in valid[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in valid]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:15.4f}  {entry['unit']}")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "presstopo" / "__init__.py").is_file():
        print(f"cannot find the presstopo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        from selfcheck import self_check
        return self_check(ROOT / ".benchmark_out" / f"self-check-{os.getpid()}")
    if args.repeat:
        return run_repeat(args)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seconds, args.trace)
    _report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
