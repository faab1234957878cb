"""Shared fixtures for the test suite."""

import json
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database; each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Hypothesis caches the literals it parses from source files under its
    home directory even without an example database, starting while the
    test modules are collected; the cache goes to a temporary directory
    that lives as long as the pytest session, so a run leaves the working
    directory as it found it."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@dataclass(frozen=True)
class VerifyRun:
    """One `verify --suite all --seed 42` run: exit code, wall time, the raw
    stdout and the parsed JSON report (empty if the run printed nothing)."""

    returncode: int
    elapsed: float
    stdout: str
    report: dict

    @property
    def checks(self) -> list[dict]:
        return self.report.get("checks", [])

    def named(self, prefix: str) -> dict[str, dict]:
        """The checks whose names start with prefix, keyed by name."""
        return {c["name"]: c for c in self.checks if c["name"].startswith(prefix)}


@pytest.fixture(scope="session")
def verify_all() -> VerifyRun:
    """The full check battery, run once per session in a child process."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "supermolien", "verify", "--suite", "all", "--seed", "42"],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - t0
    report = json.loads(proc.stdout) if proc.stdout else {}
    return VerifyRun(proc.returncode, elapsed, proc.stdout, report)
