"""A/B record of one perfbench workload: a parent revision against the working tree.

Both sides are exported with ``git archive`` into sibling temporary
directories whose names have the same length: the parent revision, and the
working tree as HEAD or, when tracked files have uncommitted edits, as the
commit ``git stash create`` makes of them.  Both therefore run from clean trees
of the same shape, with no bytecode and no untracked files.  Each pair runs

    python perfbench/run.py --workload W --seed S --trace 0

once in each tree, at run.py's own run length, and the side that goes first
alternates from pair to pair; pair k uses seed FIRST_SEED + k on both sides.
The end-to-end metrics of BENCHMARK.json are read from each run's last line.
``BENCH_<workload>.json`` at the root of the repository records every run,
each side's median and quartiles, the pairs the working tree won, whether its
median beats the parent's by more than the parent's interquartile range, the
verdict of those two tests, and the environment.

    python tools/bench_ab.py --workload ns-gate-table --parent HEAD~1 --pairs 10

perfbench/ is only read: each run writes its full record to a temporary
directory, and the set-up scratch that run.py makes lands in the exported tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
FIRST_SEED = 501
SHARE_OF_PAIRS = 0.9  # a metric is won in at least this share of the pairs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(revision: str, tree: str) -> None:
    """The tracked files of ``revision`` in the new directory ``tree``."""
    os.mkdir(tree)
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, out: str) -> dict:
    """One perfbench run in ``tree``: its summary line, the last of its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--out", out]
    done = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Each side's quartiles, the pairs won, the median gap against the parent's IQR,
    and whether the working tree wins the metric by both tests."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])  # positive when the working tree is better
    pairs_won = sum(sign * (a - b) > 0.0 for a, b in zip(parent, change))
    beyond_iqr = gain > p["q3"] - p["q1"]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent": p,
        "change": c,
        "median_change_rel": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "pairs_won": pairs_won,
        "pairs": len(parent),
        "gain_exceeds_parent_iqr": beyond_iqr,
        "change_wins": pairs_won >= math.ceil(SHARE_OF_PAIRS * len(parent)) and beyond_iqr,
    }


def environment(parent: str, working: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "parent_revision": git("rev-parse", f"{parent}^{{commit}}"),
        "working_revision": working,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    uncommitted = git("stash", "create")  # empty when no tracked file is edited
    working = uncommitted or git("rev-parse", "HEAD")
    env = environment(args.parent, working + (" (uncommitted edits)" if uncommitted else ""))

    runs = []
    with tempfile.TemporaryDirectory(prefix="kerrsim-ab-") as scratch:
        # sibling names of equal length, so the two paths differ in nothing but name
        trees = {"parent": os.path.join(scratch, "parent"),
                 "change": os.path.join(scratch, "change")}
        export(args.parent, trees["parent"])
        export(working, trees["change"])
        for pair in range(args.pairs):
            seed = FIRST_SEED + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                with tempfile.TemporaryDirectory(dir=scratch) as out:
                    summary = run_once(trees[side], args.workload, seed, out)
                runs.append({
                    "pair": pair, "side": side, "first": side == order[0], "seed": seed,
                    "attempted": summary["attempted"], "failed": summary["failed"],
                    "metrics": {m["name"]: summary["metrics"][m["name"]]["value"]
                                for m in metrics},
                })
                print(f"pair {pair} {side:<6} " + " ".join(
                    f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)

    def series(side: str, name: str) -> list[float]:
        return [r["metrics"][name] for r in runs if r["side"] == side]

    record = {
        "workload": args.workload,
        "rule": f"change_wins: the working tree is better in at least "
                f"{math.ceil(SHARE_OF_PAIRS * args.pairs)} of {args.pairs} pairs and its median "
                f"beats the parent's by more than the parent's q3 - q1",
        "environment": env,
        "summary": {m["name"]: compare(m, series("parent", m["name"]), series("change", m["name"]))
                    for m in metrics},
        "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                   for side in ("parent", "change")},
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, row in record["summary"].items():
        print(f"{name}: parent {row['parent']['median']:.6g}, change {row['change']['median']:.6g}"
              f" ({row['pairs_won']}/{row['pairs']} pairs won, "
              f"beyond parent IQR: {row['gain_exceeds_parent_iqr']}, "
              f"change wins: {row['change_wins']})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
