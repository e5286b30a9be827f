"""Acceptance-line reporting: one PASS/FAIL line per criterion at the end."""

from acceptance_log import ACCEPTANCE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in sorted(ACCEPTANCE):
        terminalreporter.write_line(f"ACCEPTANCE C{n} {ACCEPTANCE[n]}")
