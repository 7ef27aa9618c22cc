"""The names the benchmark wraps and records still exist, every product
still goes through the kernel functions it wraps, the verdicts it pins
still come out, and the closure counts it traces stay under their
ceilings.

bench/tracer.py wraps the kernel and layer functions by module and
attribute name, and bench/run.py records pgog.BACKEND_NAME and compares
every CLI op's ordered (check, status) list with bench/expected.json.  A
rename or a changed verdict would otherwise surface only in
bench/selftest.py, which takes minutes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgog
from pgog import _kernels_py, cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_only_the_kernel_runs_a_layout_law():
    # the tracer counts products by wrapping _kernels_py.mul and inv; a
    # module that ran a layout's compiled law itself would multiply out of
    # its sight
    laws = ("mul_law", "inv_law")
    assert all(hasattr(_kernels_py.Layout, law) for law in laws)
    readers = []
    for path in sorted((ROOT / "src" / "pgog").glob("*.py")):
        if path.name == "_kernels_py.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in laws:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


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


@pytest.mark.parametrize("argv, calls, elements", [
    pytest.param(["tower", "verify-all", "--p", "2", "--max-level", "3",
                  "--json"], 0, 0, id="tower-verify"),
    pytest.param(["run-all", "--json"], 0, 0, id="examples"),
])
def test_closure_counts_stay_within_their_ceilings(tmp_path, argv, calls,
                                                   elements):
    # a reintroduced redundant enumeration raises these traced counts; a
    # layer that never ran leaves its key out of the summary
    out = tmp_path / "trace.jsonl"
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(out), *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary.get("kernel.closure.calls", 0) <= calls
    assert summary.get("kernel.closure.elements", 0) <= elements
