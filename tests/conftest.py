"""Fixtures shared by the test modules: a guard that no test leaves a
child process running, and switches between run_r2d2's two ways of
scoring each epoch, inline or in a forked worker."""

import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process is still running, such
    as a run's evaluation worker; stop it, so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.kill()
        process.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def inline_scoring(monkeypatch):
    """Runs see one CPU, so run_r2d2 scores each epoch inline, in this
    process, and forks no worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def forked_scoring(monkeypatch):
    """Runs see two CPUs, so run_r2d2 forks its evaluation worker even
    on a machine with one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
