"""Benchmark of the `pops` package: one workload, one process, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload optimize|evaluate|referee \
        --seed N --seconds S --trace 0|1

The workload's inputs are drawn from the seed.  Its operations run in whole
rounds until the next round would end past S seconds of round time; each
operation is timed alone, and its output is checked against the reference
evaluator.  Set-up time is measured from outside: a fresh interpreter that
imports the package and builds the workload's inputs, SETUP_REPEATS times
spread between the rounds, median reported.

With --trace 0 nothing is wrapped and the end-to-end metrics are reported.
With --trace 1 rounds alternate between untraced and traced (wrappers from
`tracing.py`), the per-layer metrics of the traced rounds are reported, and
trace.overhead_s is the median traced round's wall time minus the median
untraced one's.  The last line of standard output is the JSON result; the
line before it records the machine and the code.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 15
SETUP_PER_ROUND = 2  # set-up samples taken before each round; the rest after the last

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("optimize_s", "s"),
    ("half_steps_per_s", "1/s"),
    ("sinr_evals_per_s", "1/s"),
    ("bound_s", "s"),
    ("mc_trials_per_s", "1/s"),
]

SETUP_CODE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import workloads; workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))"
)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("optimize", "evaluate", "referee"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def setup_sample(workload: str, seed: int, run_dir: Path) -> float:
    """Wall time of a fresh interpreter importing pops and building the inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload,
                    str(seed), str(run_dir)], check=True, env=os.environ.copy())
    return time.perf_counter() - t0


class Round:
    """What one round of operations did."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        # The process's peak so far.  Later rounds raise it by heap fragmentation
        # alone, so the metric is read after the first round.
        self.peak_rss_mb = 0.0
        self.time: dict[str, float] = defaultdict(float)
        self.units: dict[str, float] = defaultdict(float)
        self.errors: list[str] = []
        self.failures: list[str] = []


def run_round(ops, expected, tracer) -> Round:
    from workloads import CheckFailed

    rec = Round(tracer)
    installed = tracer.installed() if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    with installed:
        for op, want in zip(ops, expected):
            rec.attempted += 1
            span = tracer.span(f"op.{op.name}") if tracer is not None else contextlib.nullcontext()
            try:
                with span:
                    t0 = time.perf_counter()
                    out = op.call()
                    elapsed = time.perf_counter() - t0
                if op.collect is not None:
                    out = op.collect(out, tracer)
            except Exception as exc:  # the round goes on; the failure is counted and reported
                rec.failed += 1
                rec.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            try:
                op.check(out, want)
            except CheckFailed as exc:
                rec.errors.append(f"{op.name}: {exc}")
            if op.family is not None:
                rec.time[op.family] += elapsed
                rec.units[op.family] += op.units(out)
    rec.wall = time.perf_counter() - start
    rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


def run_rounds(ops, expected, seconds: float, traced: bool, before_round) -> list[Round]:
    """Whole rounds until the next one would take the rounds' time past `seconds`.

    `before_round()` runs before each round, outside the rounds' time.  Traced
    runs alternate untraced and traced rounds and make at least one of each.
    """
    from tracing import Tracer

    rounds: list[Round] = []
    spent = longest = 0.0
    while True:
        before_round()
        tracer = Tracer() if traced and len(rounds) % 2 == 1 else None
        rounds.append(run_round(ops, expected, tracer))
        spent += rounds[-1].wall
        longest = max(longest, rounds[-1].wall)
        enough = len(rounds) >= (2 if traced else 1)
        if enough and spent + longest > seconds:
            return rounds


def _median_over(rounds, fn) -> float:
    values = [fn(r) for r in rounds]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _rate(r: Round, family: str):
    return r.units[family] / r.time[family] if r.time[family] > 0 else None


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rounds[0].peak_rss_mb,
        "optimize_s": _median_over(rounds, lambda r: r.time["optimize"] or None),
        "half_steps_per_s": _median_over(rounds, lambda r: _rate(r, "optimize")),
        "sinr_evals_per_s": _median_over(rounds, lambda r: _rate(r, "sinr")),
        "bound_s": _median_over(rounds, lambda r: r.time["bound"] or None),
        "mc_trials_per_s": _median_over(rounds, lambda r: _rate(r, "mc")),
    }


def layer_metrics(rounds: list[Round]) -> dict[str, float]:
    from tracing import LAYER_METRICS, layer_metrics as one_round

    traced = [r for r in rounds if r.tracer is not None]
    plain = [r for r in rounds if r.tracer is None]
    per_round = [one_round(r.tracer) for r in traced]
    out = {name: statistics.median(m[name] for m in per_round)
           for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                               - statistics.median(r.wall for r in plain))
    return out


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked from the library itself."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    out[lib.name] = fn()
                    break
    return out


def _git_sha() -> str | None:
    """HEAD's sha, or None outside a git checkout or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "pops").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pops" / "__init__.py").is_file():
        print(f"error: no pops package under {SRC}", file=sys.stderr)
        return 2
    # One process and one thread: no sweep thread pool, and BLAS on one thread,
    # because on a shared two-core machine a second BLAS thread made the same
    # small eigensolve vary by 2.5x from round to round.  Set before numpy loads;
    # the set-up interpreters inherit it.
    os.environ.pop("POPS_THREADS", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    setup_times: list[float] = []

    def sample_setup(limit: int) -> None:
        while len(setup_times) < limit:
            setup_times.append(setup_sample(args.workload, args.seed, run_dir))

    try:
        ops = workloads.build(args.workload, args.seed, run_dir)
        expected = [op.expect() for op in ops]
        rounds = run_rounds(ops, expected, args.seconds, bool(args.trace),
                            lambda: sample_setup(min(SETUP_REPEATS,
                                                     len(setup_times) + SETUP_PER_ROUND)))
        sample_setup(SETUP_REPEATS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup_s = statistics.median(setup_times)

    for message in sorted({m for r in rounds for m in r.failures}):
        print(f"failed operation: {message}", file=sys.stderr)
    errors = sorted({m for r in rounds for m in r.errors})
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        from tracing import LAYER_METRICS

        values, units = layer_metrics(rounds), {n: u for n, u, _ in LAYER_METRICS}
        spans = [r.tracer.spans for r in rounds if r.tracer is not None]
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        values, units = end_to_end_metrics(rounds, setup_s), dict(END_TO_END)
    print("machine: " + json.dumps(machine_record()))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
