import sys

import pytest


@pytest.fixture(autouse=True, scope="session")
def _session_tau_cache(tmp_path_factory):
    """Point the tau cache at a session file so no test reads or rewrites the
    user's home cache; tests that set DELTA_SUMS_CACHE themselves still win."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DELTA_SUMS_CACHE", str(tmp_path_factory.mktemp("tau") / "tau_table.txt"))
        yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit the acceptance pass/fail lines after the normal report."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in lines:
            terminalreporter.write_line(line)
