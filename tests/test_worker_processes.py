"""Sweeps with ``workers > 1`` run their chunks in worker processes.

A chunk's error reaches the caller unchanged and leaves no CSV or part file
behind; a worker that dies ends the run with exit code 3 and one error
line; a caller with other threads gets spawned workers, which rebuild each
chunk from its task alone; and the pool never starts more processes than
there are chunks or CPUs, nor any below the pool floor or when only the
environment asks for workers.  A Ky Fan sweep gives the same report and CSV
in a pool as in-process.  The draws a pool makes are checked beside the
other seams in test_one_driver.py.
"""

import concurrent.futures
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading

import pytest

from meanineq import catalog, sweep
from meanineq.cli import main
from meanineq.report import check_finite_positive
from meanineq.sweep import SweepConfig, run_kyfan_sweep, run_sweep


@pytest.fixture
def eq12_fault(monkeypatch):
    """EQ12's row made to raise on every sample, as a row raises on a value
    out of its domain.  Forked workers inherit the patch."""
    entry = catalog.REGISTRY["EQ12"]
    monkeypatch.setitem(catalog.REGISTRY, "EQ12", entry._replace(
        row=lambda x, y: check_finite_positive("x", math.inf)))


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_error_reaches_the_caller(monkeypatch, eq12_fault, workers):
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    config = SweepConfig(ids=("EQ12",), samples=3000, workers=workers)
    with pytest.raises(ValueError) as info:
        run_sweep(config)
    assert type(info.value) is ValueError
    assert str(info.value) == "x must be a finite positive real, got inf"


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_error_leaves_no_csv_or_part_file(monkeypatch, eq12_fault, tmp_path, workers):
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    config = SweepConfig(ids=("EQ5", "EQ12"), samples=3000, workers=workers)
    # EQ5's chunks write their part files before an EQ12 chunk raises
    with pytest.raises(ValueError, match="got inf"):
        run_sweep(config, csv_path=str(tmp_path / "rows.csv"))
    assert list(tmp_path.iterdir()) == []


def test_chunk_error_exits_alike_at_any_worker_count(monkeypatch, eq12_fault, capsys):
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    outcomes = []
    for workers in ("1", "2"):
        code = main(["sweep", "--ids", "EQ12", "--samples", "3000", "--workers", workers])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1] == (2, "", "error: x must be a finite positive real, "
                                                "got inf\n")


# Runs the CLI with two CPUs assumed, after making the worker that gets the
# first chunk SIGKILL itself; forked workers inherit the wrapped _run_chunk.
DYING_WORKER_PROBE = """
import functools, os, signal, sys
from meanineq import catalog, sweep
from meanineq.cli import main
from meanineq.report import check_finite_positive
sweep._cpu_count = lambda: 2
real = sweep._run_chunk
caller = os.getpid()

@functools.wraps(real)
def dying(task):
    if os.getpid() != caller and task[2:4] == (0, 0):
        os.kill(os.getpid(), signal.SIGKILL)
    return real(task)

sweep._run_chunk = dying
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the probe reaches the workers by forking")
def test_dead_worker_exits_3_with_one_error_line():
    proc = subprocess.run(
        [sys.executable, "-c", DYING_WORKER_PROBE, "sweep", "--ids", "EQ5,EQ6",
         "--samples", "3000", "--workers", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.fixture
def start_methods(monkeypatch):
    """The start method of each pool a sweep makes, in order."""
    methods = []
    real = multiprocessing.get_context

    def recorded(method=None):
        methods.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", recorded)
    return methods


def test_threaded_caller_spawns_workers(monkeypatch, tmp_path, start_methods):
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    outputs = []
    for workers in (1, 2):
        config = SweepConfig(ids=("EQ5", "EQ15"), samples=1100, seed=8, workers=workers)
        path = tmp_path / f"rows-{workers}.csv"
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            rep = run_sweep(config, csv_path=str(path))
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        rep.pop("wall_time_s")
        outputs.append((rep, path.read_bytes()))
    assert start_methods == ["spawn"]
    assert outputs[0] == outputs[1]


class FakePool:
    """Runs each task inline and records the process count it was asked for."""

    created = []

    def __init__(self, max_workers, mp_context=None):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("ids,samples,cpus,procs", [
    (("EQ5",), 2048, 3, 2),             # two chunks: two processes, not three
    (("ALL",), 2048, 3, 3),             # thirty chunks: as many processes as CPUs
    (("EQ5", "EQ6"), 3072, 8, 6),       # six chunks on eight CPUs
])
def test_process_count_is_capped(monkeypatch, ids, samples, cpus, procs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(sweep, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(FakePool, "created", [])
    config = SweepConfig(ids=ids, samples=samples, seed=3, workers=64)
    rep = run_sweep(config)
    assert FakePool.created == [procs]
    rep.pop("wall_time_s")
    alone = run_sweep(SweepConfig(ids=ids, samples=samples, seed=3, workers=1))
    alone.pop("wall_time_s")
    assert rep == alone


@pytest.mark.parametrize("workers,ids,samples", [
    (1, ("EQ5",), 3000),                # one worker: never a pool
    (2, ("ALL",), 40),                  # 600 evaluations: below the floor
    (64, ("ALL",), 40),
])
def test_no_pool_below_the_floor_or_for_one_worker(monkeypatch, workers, ids, samples):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 4)
    monkeypatch.setattr(FakePool, "created", [])
    run_sweep(SweepConfig(ids=ids, samples=samples, workers=workers))
    run_kyfan_sweep(SweepConfig(samples=samples, workers=workers))
    assert FakePool.created == []


def test_environment_does_not_set_the_worker_count(monkeypatch, capsys):
    monkeypatch.setenv("MEANINEQ_WORKERS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 4)
    monkeypatch.setattr(FakePool, "created", [])
    run_sweep(SweepConfig(ids=("EQ5",), samples=3000))
    assert main(["kyfan-sweep", "--samples", "3000"]) == 0
    capsys.readouterr()
    assert FakePool.created == []


def test_kyfan_sweep_identical_across_worker_counts(monkeypatch, capsys, tmp_path,
                                                    start_methods):
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    outputs = []
    for workers in ("1", "2"):
        path = tmp_path / f"rows-{workers}.csv"
        code = main(["kyfan-sweep", "--samples", "3000", "--csv", str(path),
                     "--workers", workers])
        report = re.sub(r'"wall_time_s": [^,}]*', "", capsys.readouterr().out)
        outputs.append((code, report, path.read_bytes()))
    assert len(start_methods) == 1      # workers 2 ran in a pool, workers 1 did not
    assert outputs[0] == outputs[1]


def test_cpu_count_is_this_process_share():
    assert 1 <= sweep._cpu_count() <= (os.cpu_count() or 1)
