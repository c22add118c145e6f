import os

import pytest

from wikicite.registry import load_default_registry


@pytest.fixture(scope="session")
def starter_registry():
    return load_default_registry()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not yet
    reaped: a command's worker must be gone by the time it returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind ({f'pid {pid}, unreaped' if pid else 'running'})")


# acceptance reporting -------------------------------------------------

# Each criterion's PASS/FAIL/SKIP line, then the figures it recorded with
# ``record_property``, one indented ``name: value`` line each.
_acceptance_lines: dict[str, tuple[str, list]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _acceptance_lines[name] = (status, report.user_properties)
    elif report.when == "setup" and (report.skipped or report.failed):
        _acceptance_lines[name] = ("SKIP" if report.skipped else "FAIL", [])


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_lines):
        status, figures = _acceptance_lines[name]
        terminalreporter.write_line(f"{name}: {status}")
        for key, value in figures:
            terminalreporter.write_line(f"    {key}: {value}")
