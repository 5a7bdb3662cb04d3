"""kerrsim benchmark: run one workload (or all of them) and report its metrics.

    python3 perfbench/run.py --workload paper-default --seed 20230 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; kerrsim is imported from ``src/``.
Each workload runs in its own process, one at a time.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The full record
(every metric with its unit and sample count, per-amplitude ML gaps, the
environment) goes to ``--out`` (default ``.perfbench/``), and the spans of a
traced run to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-default", "shots-2m-csv", "ns-gate-table")
SETUP_REPEATS = 5
MIN_OPS = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# One BLAS thread, set before numpy is first imported here or in a child.  On a
# shared host of a few cores, multi-threaded BLAS on these small matrices times
# the scheduler: with one core kept busy by another process, paper-default's op
# took 2.6x as long with the default two threads and 1.1x with one.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# name -> (unit, better); the end-to-end figures every run computes
E2E_UNITS = {
    "setup_s": ("s", "lower"),
    "op_s.mean": ("s", "lower"),
    "op_s.p50": ("s", "lower"),
    "op_s.p90": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "fidelity_min": ("1", "higher"),
    "ml_gap_max": ("nats", "lower"),
    "error_rate": ("1", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "io.bytes_read": ("bytes", "lower"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_time() -> float:
    """Wall time of a fresh interpreter that imports kerrsim from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import kerrsim"], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):  # show_config's layout differs across numpy versions
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ops for ``seconds``; with ``trace``, every other op is traced.
    Of the SETUP_REPEATS set-up samples, one is taken before the first op and
    the rest between ops, spread over the run."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    tmp_root = SCRATCH / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)

    untraced, traced, layer_rows, failures, peak_kb = [], [], [], [], []
    fidelities, written, read, setup = [], [], [], []
    first = None

    def one_op(index: int) -> float:
        nonlocal first
        outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root)
        is_traced = tracer is not None and index % 2 == 1
        workload.prepare()
        if is_traced:
            tracer.op = index
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.run(outdir)
            wall = time.perf_counter() - start
        except Exception:  # an op that raises counts as failed; the run goes on
            wall = time.perf_counter() - start
            result = None
            failures.append(traceback.format_exc(limit=3))
        finally:
            if is_traced:
                tracer.uninstall()
        if not peak_kb:
            peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        try:
            (traced if is_traced else untraced).append(wall)
            if result is None:
                return wall
            try:
                facts = workload.check(result, outdir)
            except Exception:  # a check that cannot run fails the op, not the run
                failures.append(traceback.format_exc(limit=3))
                return wall
            if facts["problems"]:
                failures.append("; ".join(facts["problems"]))
            fidelities.extend(facts["fidelities"])
            written.append(facts["bytes_written"])
            read.append(facts["bytes_read"])
            if first is None:
                first = workload.quality(result, facts)
            if is_traced:
                layer_rows.append(tracer.op_metrics(index, wall, workload.alphas))
            return wall
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    # No warm-up op: a user of the command line pays first-call costs on every
    # invocation, and with one BLAS thread the first op of a run was no slower
    # than the rest.  Peak RSS is read right after the first op, which is what
    # one invocation holds.  A run makes at least MIN_OPS ops so that a long
    # op's time is not one noisy sample; past that it stops at the op boundary
    # nearest to ``seconds``.  The host's speed moves by a quarter within
    # seconds, so set-up is sampled at intervals over the run, not in one
    # burst that a slow spell could cover.
    setup.append(setup_time())
    start = time.perf_counter()
    setup_every = seconds / (SETUP_REPEATS - 1)
    index = 0
    while True:
        wall = one_op(index)
        index += 1
        elapsed = time.perf_counter() - start - sum(setup[1:])
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * setup_every:
            setup.append(setup_time())
        if elapsed + 0.5 * wall >= seconds and index >= MIN_OPS:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time())

    return {
        "workload": workload,
        "setup": setup,
        "untraced": untraced,
        "traced": traced,
        "layer_rows": layer_rows,
        "failures": failures,
        "fidelities": fidelities,
        "bytes_written": written,
        "bytes_read": read,
        "per_alpha": first or [],
        "peak_rss_mb": peak_kb[0] / 1024.0,
        "spans": tracer.dump() if tracer else [],
    }


def end_to_end(outcome: dict) -> dict:
    times = outcome["untraced"]
    setup = outcome["setup"]
    attempted = len(times) + len(outcome["traced"])
    wl = outcome["workload"]
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "op_s.mean": (statistics.mean(times), len(times)),
        "op_s.p50": (statistics.median(times), len(times)),
        "op_s.p90": (quantile(times, 90), len(times)),
        "peak_rss_mb": (outcome["peak_rss_mb"], 1),
        "error_rate": (len(outcome["failures"]) / attempted, attempted),
    }
    if wl.samples_per_op:
        values["samples_per_s"] = (wl.samples_per_op / statistics.median(times), len(times))
    if outcome["fidelities"]:
        values["fidelity_min"] = (min(outcome["fidelities"]), len(outcome["fidelities"]))
    if outcome["per_alpha"]:
        gaps = [row["ml_gap_nats"] for row in outcome["per_alpha"]]
        values["ml_gap_max"] = (max(gaps), len(gaps))
    if outcome["bytes_written"]:
        values["io.bytes_written"] = (statistics.median(outcome["bytes_written"]), len(times))
        values["io.bytes_read"] = (statistics.median(outcome["bytes_read"]), len(times))
    return {
        k: {"value": v, "unit": E2E_UNITS[k][0], "better": E2E_UNITS[k][1], "n": n}
        for k, (v, n) in values.items()
    }


def per_layer(outcome: dict) -> dict:
    import tracing

    rows = outcome["layer_rows"]
    values = {key: (statistics.median(row[key] for row in rows), len(rows))
              for key in tracing.metric_names()}
    overhead = statistics.median(outcome["traced"]) - statistics.median(outcome["untraced"])
    values["trace.overhead_s"] = (overhead, len(outcome["traced"]))
    out = {}
    for key, (value, n) in values.items():
        unit, better = tracing.metric_unit(key)
        out[key] = {"value": value, "unit": unit, "better": better, "n": n}
    return out


def print_table(name: str, metrics: dict) -> None:
    for key, m in metrics.items():
        print(f"{name:<14} {key:<48} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")


def single(args, declared: dict) -> int:
    if not (SRC / "kerrsim" / "__init__.py").is_file():
        return fail(f"no kerrsim package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import kerrsim

    if Path(kerrsim.__file__).resolve().parent != (SRC / "kerrsim").resolve():
        return fail(f"kerrsim imported from {kerrsim.__file__}, not from {SRC}")

    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = end_to_end(outcome)
    if args.trace:
        metrics.update(per_layer(outcome))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": len(outcome["untraced"]) + len(outcome["traced"]),
        "failures": outcome["failures"],
        "op_s": outcome["untraced"],
        "op_s_traced": outcome["traced"],
        "setup_s": outcome["setup"],
        "per_alpha": outcome["per_alpha"],
        "metrics": metrics,
    }
    out_dir = Path(args.out) if args.out else SCRATCH
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (SCRATCH / f"{stem}-spans.json").write_text(json.dumps(outcome["spans"]) + "\n")

    print(f"{args.workload}: env {json.dumps(record['environment'], sort_keys=True)}")
    for row in outcome["per_alpha"]:
        print(
            f"{args.workload}: alpha={row['alpha']:g} iterations={row['iterations']} "
            f"converged={row['converged']} ml_gap={row['ml_gap_nats']:.4g} nats "
            f"fidelity={row['fidelity']:.5f} occupied_bins={row['occupied_bins']}"
        )
    for failure in outcome["failures"]:
        print(f"{args.workload}: FAILED op: {failure.strip()}")
    print_table(args.workload, metrics)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    wrong = [m["name"] for m in wanted if m["name"] not in metrics
             or (m["unit"], m["better"]) != (metrics[m["name"]]["unit"], metrics[m["name"]]["better"])]
    if wrong:
        return fail(f"metrics in BENCHMARK.json not measured with that unit and sense: {wrong}")
    failed = len(outcome["failures"])
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": metrics[m["name"]]["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return fail(f"workload {name} exited with {done.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=20230)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the full result record (default .perfbench/)")
    args = parser.parse_args(argv)
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return fail(f"{spec} not found")
    declared = json.loads(spec.read_text())
    if args.workload == "all":
        return run_all(args)
    return single(args, declared)


if __name__ == "__main__":
    sys.exit(main())
