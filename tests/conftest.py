"""Prints the acceptance scoreboard in the pytest terminal summary."""

#: ``criterion N: PASS|FAIL -- …`` lines, in the order the checks ran
SCOREBOARD: list = []


def pytest_terminal_summary(terminalreporter):
    if SCOREBOARD:
        terminalreporter.section("acceptance scoreboard")
        for line in SCOREBOARD:
            terminalreporter.write_line(line)
