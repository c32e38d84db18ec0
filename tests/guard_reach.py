"""Opt-in pytest plugin: which `raise` statements of the package ran.

    python -m pytest --guard-reach [paths]

With the flag, a stdlib ``sys.settrace`` hook watches the frames of
``src/ramanvortex`` for exceptions and records each one raised at a
``raise`` statement; the terminal summary gives the reached and unreached
counts and lists the unreached sites as file:line, and a session that
left any site unreached exits non-zero even when every test passed.
Without the flag nothing is traced.  Tests that run the package in a
subprocess (the CLI tests) are not seen, so their guards count as
unreached unless an in-process test trips them too.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import ramanvortex

PACKAGE = Path(ramanvortex.__file__).parent


def raise_sites(package: Path = PACKAGE) -> set[tuple[str, int]]:
    """(file path, line) of every raise statement under `package`."""
    sites = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites.update((str(path), node.lineno) for node in ast.walk(tree)
                     if isinstance(node, ast.Raise))
    return sites


class GuardReach:
    """Records the raise sites at which an exception started."""

    def __init__(self):
        self.sites = raise_sites()
        self.files = {path for path, _ in self.sites}
        self.reached: set[tuple[str, int]] = set()
        self._previous = None

    def _local(self, frame, event, arg):
        if event == "exception":
            site = (frame.f_code.co_filename, frame.f_lineno)
            if site in self.sites:
                self.reached.add(site)
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename not in self.files:
            return None
        # exception events only: no per-line callbacks
        frame.f_trace_lines = False
        return self._local

    def pytest_sessionstart(self, session):
        self._previous = sys.gettrace()
        sys.settrace(self._global)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(self._previous)
        if self.sites - self.reached and exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        unreached = sorted(self.sites - self.reached)
        write = terminalreporter.write_line
        terminalreporter.section("guard reach")
        write(f"{len(self.reached)} of {len(self.sites)} raise statements "
              f"in {PACKAGE.name} reached, {len(unreached)} unreached")
        for path, line in unreached:
            write(f"  {Path(path).name}:{line}")


def pytest_addoption(parser):
    parser.addoption("--guard-reach", action="store_true",
                     help="list the package's raise statements that no "
                          "test reached, and fail if there are any")


def pytest_configure(config):
    if config.getoption("--guard-reach"):
        config.pluginmanager.register(GuardReach(), "guard_reach")
