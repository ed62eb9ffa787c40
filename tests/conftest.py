import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]  # helpers and oracles; trajrules

_acceptance_outcomes: dict[str, str] = {}
_acceptance_docs: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance.py" in item.nodeid:
            doc = (item.function.__doc__ or item.name).strip()
            _acceptance_docs[item.nodeid] = doc.splitlines()[0]


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    # setup/teardown failures count against the criterion too
    if report.when == "call" or report.outcome != "passed":
        current = _acceptance_outcomes.get(report.nodeid)
        if current != "failed":
            _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for nodeid in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[nodeid]
        status = "PASS" if outcome == "passed" else "FAIL"
        doc = _acceptance_docs.get(nodeid, nodeid.split("::")[-1])
        terminalreporter.write_line(f"{status}  {doc}")
