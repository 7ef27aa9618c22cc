"""Self-test of the benchmark; prints every metric of every workload.

    python3 bench/selftest.py

For each workload: one untraced run (all end-to-end metrics, including
unknown_frac and failed_frac) and two traced runs with the same seed (all
per-layer metrics).  Fails when a run is incorrect, when a traced target is
missing, when a per-layer metric reads zero on a workload that exercises
it, when two traced runs give different counts, or when BENCHMARK.json
disagrees with the metric names the runs report.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = 5     # per run
SEED = 1

_KERNEL = ("kernel.mul.calls", "kernel.inv.calls", "kernel.closure.calls",
           "kernel.closure.elements", "kernel.closure.self_s")
_CHECKS = ("presentations.check_model_satisfies.calls",
           "presentations.check_model_satisfies.s",
           "presentations.hom_injective_on.calls",
           "presentations.hom_injective_on.s",
           "presentations.hom_verify.calls", "presentations.hom_verify.s")
_GOG = ("gog.certify.calls", "gog.certify.s", "gog.verify_properness_witness.s",
        "gog.verify_specialisation.s", "gog.fundamental_presentation.s")

# the per-layer metrics each workload must move (nonzero)
EXERCISED = {
    "tower-verify": _KERNEL + _CHECKS + _GOG + (
        "models.closure.calls", "models.closure.full_cache_hits",
        "models.closure.s", "presentations.apply_element.calls",
        "presentations.apply_element.s", "tower.build_level.s",
        "tower.build_level.misses", "tower.build_graphs.s",
        "tower.check_retraction_square.s", "tower.check_transition_maps.s",
        "tower.build_witnesses.s", "tower.check_two_generation.s",
        "analysis.check_edge_bound.s", "reports.render.s", "cli.import_s"),
    "nf-products": (
        "kernel.mul.calls", "kernel.inv.calls", "kernel.closure.calls",
        "kernel.closure.elements", "kernel.closure.self_s",
        "presentations.apply_element.calls", "presentations.apply_element.s",
        "amalgam.build_transversals.s",
        "amalgam.transversal.cosets", "amalgam.normal_form.calls",
        "amalgam.normal_form.s", "amalgam.nf_multiply.calls",
        "amalgam.nf_multiply.s", "amalgam.tables.entries", "cli.import_s"),
    "examples": _KERNEL + _CHECKS + _GOG + (
        "presentations.coset_enumerate.calls",
        "presentations.coset_enumerate.s",
        "presentations.coset_enumerate.cosets_created",
        "presentations.coset_enumerate.useful_ratio", "amalgam.separate.s",
        "dsl.parse_dsl.s", "analysis.detect_collapse.s",
        "analysis.check_edge_bound.s", "reports.render.s", "cli.import_s"),
}


def bench_run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        check=True).stdout
    print(out, end="")
    record = json.loads(
        (run.RESULTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return json.loads(out.splitlines()[-1]), record


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [m["name"] for m in spec["end_to_end"]]
    if names != [name for name, _ in run.END_TO_END]:
        problems.append(f"BENCHMARK.json end_to_end {names} differs from "
                        "the metrics run.py reports")
    names = [m["name"] for m in spec["per_layer"]]
    if names != [name for name, _ in tracer.METRICS] + ["trace.overhead_s"]:
        problems.append("BENCHMARK.json per_layer differs from tracer.METRICS")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        result, _ = bench_run(workload, 0)
        if not result["correct"]:
            problems.append(f"{workload}: untraced run incorrect")
        traced = []
        for _ in range(2):
            result, record = bench_run(workload, 1)
            if not result["correct"]:
                problems.append(f"{workload}: traced run incorrect")
            if record["missing"]:
                problems.append(f"{workload}: not traced: {record['missing']}")
            if not record["counts_repeat"]:
                problems.append(f"{workload}: counts differ between ops")
            traced.append(result["metrics"])
        for name in EXERCISED[workload]:
            if not traced[0][name]["value"]:
                problems.append(f"{workload}: {name} reads zero")
        for name, metric in traced[0].items():
            if (metric["unit"] == "count"
                    and metric["value"] != traced[1][name]["value"]):
                problems.append(
                    f"{workload}: {name} is {metric['value']} then "
                    f"{traced[1][name]['value']} in two traced runs")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
