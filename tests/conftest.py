import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit the acceptance pass/fail lines after the normal report."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in lines:
            terminalreporter.write_line(line)
