"""Shared pytest plumbing.

The acceptance suite appends one verdict line per numbered criterion to
acceptance_report; plain prints are swallowed by output capture, so a
terminal-summary hook emits them after the run instead.

Tests that start a subprocess (the CLI module, scripts/reproduce.py)
must import the same src/ tree as the test process, so src/ is put on
PYTHONPATH for the children as well.
"""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

acceptance_report: list[tuple[int, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_report:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(acceptance_report):
        terminalreporter.write_line(line)
