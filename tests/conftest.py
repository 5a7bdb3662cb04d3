import os
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from kerrsim.pipeline import ExperimentConfig, RunReport, run_pipeline

# a busy machine can stall one example past hypothesis' default 200 ms deadline
settings.register_profile("kerrsim", deadline=None)
settings.load_profile("kerrsim")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, ended or still running."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process ({'still running' if pid == 0 else pid})")


@dataclass
class TimedRun:
    report: RunReport
    seconds: float


@pytest.fixture(scope="session")
def ideal_run(tmp_path_factory) -> TimedRun:
    """Full default pipeline (the three reference amplitudes, ideal parameters)."""
    outdir = tmp_path_factory.mktemp("pipeline_ideal")
    config = ExperimentConfig(outdir=str(outdir))
    start = time.perf_counter()
    report = run_pipeline(config)
    return TimedRun(report, time.perf_counter() - start)


@pytest.fixture(scope="session")
def bestfit_run(tmp_path_factory) -> TimedRun:
    """Best-fit parameter pipeline at the middle amplitude."""
    outdir = tmp_path_factory.mktemp("pipeline_bestfit")
    config = ExperimentConfig(alphas=(0.53,), mode="bestfit", outdir=str(outdir))
    start = time.perf_counter()
    report = run_pipeline(config)
    return TimedRun(report, time.perf_counter() - start)
