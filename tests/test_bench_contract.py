"""The names the benchmark wraps and records still exist.

bench/tracer.py wraps the kernel and layer functions by module and
attribute name, and bench/run.py records pgog.BACKEND_NAME.  A rename
would otherwise surface only in bench/selftest.py, which takes minutes.
"""

from pathlib import Path

import pgog

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
