"""Hypothesis profiles, and fixtures for code that runs in worker processes.

With the CI environment variable set (GitHub Actions sets it), the `ci`
profile derandomizes every property test, so a run draws the same
examples each time and a failure reproduces.  Local runs keep random
examples and the example database.
"""

import ast
import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


class ProcessLog:
    """Values recorded by this process and by the worker processes it
    forks, one file per pid, so a count covers every worker.  A value is
    written as its repr and read back by ast.literal_eval: ints, floats
    (exactly), strings and tuples of them."""

    def __init__(self, directory):
        self.directory = directory
        directory.mkdir()

    def append(self, value):
        with open(self.directory / f"{os.getpid()}.log", "a", encoding="utf-8") as log:
            log.write(repr(value) + "\n")

    def read(self) -> list:
        """Every value, each process's in the order it wrote them."""
        return [
            ast.literal_eval(line)
            for path in sorted(self.directory.glob("*.log"))
            for line in path.read_text(encoding="utf-8").splitlines()
        ]

    def clear(self):
        for path in self.directory.glob("*.log"):
            path.unlink()


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "process-log")


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets the CPU count that parallel.worker_count reads."""

    def set_cpus(n: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus
