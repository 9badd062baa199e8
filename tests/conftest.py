"""Shared fixtures and the summary hook for the acceptance report."""

import pytest

ACCEPTANCE_LINES: list[str] = []


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name (a module function or a class attribute) for this
    test; returns the list of argument tuples of its calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture(scope="session")
def acceptance_log():
    """Accumulator for one human-readable line per acceptance check."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # printed after the test summary so the lines survive output capture
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
