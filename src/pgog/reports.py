"""Deterministic check reports with a stable JSON rendering.

A report is a command name, its parameters, and an ordered list of checks,
each `{name, status, details}` with status one of pass/fail/unknown/skip.
unknown means undecided: a coset enumeration that did not complete, or a
separation search that certified no level.  The exit code is 0 exactly
when no check failed; unknown and skip do not fail.  Every verification
returns its check from check(), the one constructor: its status follows
from its violations, pass exactly when there are none.  A caller renames
a check with {**check, "name": ...}.  Only this module spells a status;
status(ok) is a verdict's.  Serialisation sorts keys and renders non-JSON
values (infinite depths, fractions, words, group elements) through a
fixed conversion, so identical inputs produce identical bytes.
"""

import json
import math
from fractions import Fraction

from .models import BudgetError

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"
SKIP = "skip"
_STATUSES = (PASS, FAIL, UNKNOWN, SKIP)


def make_check(name, status, **details):
    if status not in _STATUSES:
        raise ValueError(f"unknown status {status!r}")
    return {"name": name, "status": status, "details": details}


def status(ok):
    return PASS if ok else FAIL


def check(name, violations, **details):
    """Check `name` that passes exactly when it found no violations."""
    return make_check(name, status(not violations), violations=violations,
                      **details)


def guarded(name, thunk):
    """The checks thunk() returns; if it raises ValueError, one failing
    check `name` with the error as its reason.  Anything else propagates,
    and so does a BudgetError, which is a usage error."""
    try:
        return thunk()
    except BudgetError:
        raise
    except ValueError as exc:
        return [make_check(name, FAIL, reason=str(exc))]


def collapse_check(name, report):
    """Informational check from a divergence analysis (never fails)."""
    return make_check(
        name, PASS,
        collapsed=list(report.collapsed),
        improper=report.improper,
        depths={g: d for g, d in sorted(report.depths.items())},
        residual_generators=list(report.residual.generators),
        residual_rank=report.residual_rank)


def witness_checks(witness, label=""):
    """Check `witness[ label]` from the witness's report and, only for a
    valid witness, check `edge-bound[ label]` from its edge bound."""
    from .analysis import check_edge_bound
    label = f" {label}" if label else ""
    checks = [{**witness.report, "name": f"witness{label}"}]
    if witness.valid:
        checks.append({**check_edge_bound(witness),
                       "name": f"edge-bound{label}"})
    return checks


def _plain(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float) and math.isinf(value):
        return "DIVERGES"
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Fraction):
        return (int(value) if value.denominator == 1
                else f"{value.numerator}/{value.denominator}")
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) \
            else value
        return [_plain(v) for v in items]
    return repr(value)


class Report:
    """Ordered checks for one command run."""

    def __init__(self, command, parameters=None):
        self.command = command
        self.parameters = {} if parameters is None else parameters
        self.checks = []

    def add(self, name, status, **details):
        self.checks.append(make_check(name, status, **details))

    def extend(self, checks):
        self.checks.extend(checks)

    @property
    def exit_code(self):
        return 1 if any(c["status"] == FAIL for c in self.checks) else 0

    @property
    def counts(self):
        out = {s: 0 for s in _STATUSES}
        for c in self.checks:
            out[c["status"]] += 1
        return out

    def to_dict(self):
        return _plain({"command": self.command,
                       "parameters": self.parameters,
                       "checks": self.checks,
                       "exit_code": self.exit_code})

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self):
        lines = []
        for c in self.checks:
            details = ", ".join(f"{k}={_plain(v)}"
                                for k, v in sorted(c["details"].items()))
            lines.append(f"[{c['status']:>7}] {c['name']}"
                         + (f"  ({details})" if details else ""))
        counts = self.counts
        summary = ", ".join(f"{counts[s]} {s}" for s in _STATUSES if counts[s])
        lines.append(f"{self.command}: {summary or 'no checks'} "
                     f"-> exit {self.exit_code}")
        return "\n".join(lines) + "\n"
