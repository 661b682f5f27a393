"""Shared pytest wiring.

The acceptance module registers one line per criterion; the hook below prints
them in the terminal summary so the pass/fail table is visible even when
stdout capture hides in-test prints. The real_pools fixture lets a tiny sweep
fork real worker processes.
"""

import concurrent.futures

import pytest

from ccflab import experiments

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def real_pools(monkeypatch):
    """Each real ProcessPoolExecutor sweep() builds, with its max_workers. A
    pool costs nothing and the process may run on two CPUs, so even a plan
    whose estimated time is far below what a pool costs forks two workers for
    two pending cells."""
    built = []
    real = concurrent.futures.ProcessPoolExecutor

    def build(max_workers):
        built.append((real(max_workers=max_workers), max_workers))
        return built[-1][0]

    monkeypatch.setattr(experiments, "POOL_COST_S", 0.0)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", build)
    return built
