"""The names the benchmark wraps and records still exist, and the
verdicts it pins still come out.

bench/tracer.py wraps the kernel and layer functions by module and
attribute name, and bench/run.py records pgog.BACKEND_NAME and compares
every CLI op's ordered (check, status) list with bench/expected.json.  A
rename or a changed verdict would otherwise surface only in
bench/selftest.py, which takes minutes.
"""

import json
from pathlib import Path

import pgog
from pgog import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tracer.import_all()
    t = tracer.Tracer()
    try:
        assert t.install() == []
    finally:
        t.uninstall()
    assert pgog.BACKEND_NAME == "py"


def _verdicts(capsys, workload, argv):
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    pinned = json.loads((BENCH / "expected.json").read_text())[workload]
    assert [[c["name"], c["status"]] for c in report["checks"]] == pinned


def test_tower_verify_verdicts_match_the_pinned_list(capsys):
    _verdicts(capsys, "tower-verify",
              ["tower", "verify-all", "--p", "2", "--max-level", "3", "--json"])


def test_examples_verdicts_match_the_pinned_list(capsys):
    _verdicts(capsys, "examples", ["run-all", "--json"])
