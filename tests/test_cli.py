"""CLI subcommands, report rendering, and the example registry."""

import ast
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from pgog import cli, registry, reports


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:           # argparse refused the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_path(name):
    return str(resources.files("pgog.data").joinpath(name))


# -- reports -------------------------------------------------------------------


def test_report_exit_code_semantics():
    report = reports.Report("demo")
    report.add("a", reports.PASS)
    report.add("b", reports.UNKNOWN)
    report.add("c", reports.SKIP)
    assert report.exit_code == 0
    report.add("d", reports.FAIL)
    assert report.exit_code == 1
    with pytest.raises(ValueError, match="unknown status"):
        report.add("e", "maybe")


def test_report_value_rendering():
    report = reports.Report("demo")
    report.add("x", reports.PASS, depth=float("inf"), ratio=Fraction(1, 8),
               whole=Fraction(4, 2), items=(1, 2))
    data = json.loads(report.to_json())
    details = data["checks"][0]["details"]
    assert details["depth"] == "DIVERGES"
    assert details["ratio"] == "1/8"
    assert details["whole"] == 2
    assert details["items"] == [1, 2]


def test_reports_are_byte_stable():
    def build():
        report = reports.Report("demo", {"p": 2})
        report.add("x", reports.PASS, values={"b": 1, "a": 2})
        return report.to_json()
    assert build() == build()


# -- subcommands ----------------------------------------------------------------


def test_parse_command(capsys):
    code, out, _ = run_cli(capsys, "parse", data_path("heisenberg_chain.gog"))
    assert code == 0
    assert "graph chain" in out and "reduced=True" in out


def test_parse_rejects_bad_documents(capsys, tmp_path):
    bad = tmp_path / "bad.gog"
    bad.write_text("gens a\nrel b\n")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 2
    assert "line 2" in err


def test_parse_fails_a_witness_that_is_not_a_homomorphism(capsys, tmp_path):
    # a witness into a group of another prime parsed as pass before
    doc = tmp_path / "w.gog"
    doc.write_text("p 2\ngraph g\nvertex A : EA(a)\n"
                   "witness W : EA(x, y, p=3) map A.a -> x\n")
    code, out, _ = run_cli(capsys, "parse", str(doc), "--json")
    assert code == 1
    check = json.loads(out)["checks"][-1]
    assert check == {"name": "witness W", "status": "fail", "details": {
        "target": "EA(3;x,y)",
        "violations": [{"kind": "prime", "generator": "a",
                        "image": [1, 0], "vertex": "A"}]}}
    code, out, _ = run_cli(capsys, "parse", data_path("free_line.gog"),
                           "--json")
    assert code == 0
    check = json.loads(out)["checks"][-1]
    assert check == {"name": "witness W", "status": "pass", "details": {
        "target": "EA(2;x,y)", "violations": []}}


def test_collapse_command_reports_divergence(capsys):
    code, out, _ = run_cli(capsys, "collapse",
                           data_path("heisenberg_chain.gog"), "--json")
    assert code == 0
    data = json.loads(out)
    check, = data["checks"]
    assert check["details"]["collapsed"] == ["a2", "a3", "b1", "b2"]
    assert check["details"]["depths"]["a2"] == "DIVERGES"
    assert check["details"]["residual_rank"] == 2


def test_collapse_unknown_name(capsys):
    code, _, err = run_cli(capsys, "collapse",
                           data_path("heisenberg_chain.gog"), "--name", "zz")
    assert code == 2
    assert "no presentation or graph named" in err


def test_bound_command(capsys):
    code, out, _ = run_cli(capsys, "bound", data_path("free_line.gog"))
    assert code == 0
    assert "witness W" in out and "edge-bound W" in out


def test_bound_reports_no_edge_bound_for_a_failed_witness(capsys, tmp_path):
    # both generators of EA(a, b) go to x: a hom, but not injective
    doc = tmp_path / "nw.gog"
    doc.write_text("p 2\ngraph g\nvertex A : EA(a, b)\n"
                   "witness W : EA(x) map A.a -> x, A.b -> x\n")
    code, out, _ = run_cli(capsys, "bound", str(doc), "--json")
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "witness W", "status": "fail", "details": {
            "target": "EA(2;x)",
            "violations": [{"kind": "injectivity", "vertex": "A",
                            "vertex_order": 4, "image_order": 2}]}}]


def test_bound_requires_a_witness(capsys, tmp_path):
    doc = tmp_path / "nw.gog"
    doc.write_text("p 2\ngraph g\nvertex A : EA(a)\n")
    code, _, err = run_cli(capsys, "bound", str(doc))
    assert code == 2
    assert "no witnesses" in err


def test_tower_build_command(capsys):
    code, out, _ = run_cli(capsys, "tower", "build", "--p", "2", "--n", "2",
                           "--m", "1", "--json")
    assert code == 0
    data = json.loads(out)
    names = [c["name"] for c in data["checks"]]
    assert names == ["path", "tail", "joined"]
    joined = data["checks"][2]["details"]
    assert joined["vertex_orders"]["W"] == 2048


def test_tower_verify_all_command(capsys):
    code, out, _ = run_cli(capsys, "tower", "verify-all", "--p", "2",
                           "--max-level", "2")
    assert code == 0
    assert "retraction-square-n2" in out
    assert "witness P2->Fn(2,2)" in out
    assert re.search(r"exit 0\s*$", out)


def test_failed_tower_check_reads_fail_not_unknown(capsys, monkeypatch):
    from pgog import tower

    def failing(p, levels):
        raise ValueError(f"witness P{levels}->Fn(2,2) failed: []")

    monkeypatch.setattr(tower, "build_witnesses", failing)
    code, out, _ = run_cli(capsys, "tower", "verify-all", "--p", "2",
                           "--max-level", "1", "--json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["witnesses-n1"]["status"] == "fail"
    assert checks["witnesses-n1"]["details"]["reason"] == \
        "witness P1->Fn(2,2) failed: []"
    assert checks["two-generation-n1"]["status"] == "pass"


def run_fresh(*argv):
    """Exit code and checks by name of a --json run in a fresh process, so
    that levels cached by earlier tests cannot hide the cost of a run."""
    done = subprocess.run(
        [sys.executable, "-m", "pgog.cli", *argv, "--json"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.stdout, done.stderr
    return done.returncode, {c["name"]: c
                             for c in json.loads(done.stdout)["checks"]}


@pytest.mark.parametrize("p, max_level, passed", [(3, 3, 22), (2, 4, 32)])
def test_tower_reaches_past_any_enumeration(p, max_level, passed):
    # levels whose vertex groups are far too large to list: they finish
    # only because nothing on the tower path encloses a group
    code, checks = run_fresh("tower", "verify-all", "--p", str(p),
                             "--max-level", str(max_level))
    assert code == 0
    assert [c["status"] for c in checks.values()] == ["pass"] * passed


def test_separation_reaches_past_any_enumeration():
    # normal forms sift instead of enumerating, so the search reaches
    # p=3 level 3 and p=2 level 5 in a fresh process
    for p, level in [(3, 3), (2, 5)]:
        code, checks = run_fresh(
            "separate", "--p", str(p), "--word",
            f"G{level}:k{level} L{level}:t", "--max-level", str(level))
        assert code == 0
        assert checks["separate"]["status"] == "pass"
        assert checks["separate"]["details"]["level"] == level


def modules_after(*argv):
    """Exit code and the modules loaded by a fresh process that runs
    `pgog ARGV --json`: the import a user pays for on each command."""
    probe = ("import sys\n"
             "from pgog import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "import json\n"
             "sys.stderr.write(json.dumps(sorted(sys.modules)))\n"
             "sys.exit(code)\n")
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv, "--json"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return done.returncode, set(json.loads(done.stderr))


@pytest.mark.parametrize("argv, used, unused", [
    (("tower", "verify-all", "--p", "2", "--max-level", "3"), set(),
     {"pgog.registry", "pgog.dsl", "pgog.amalgam", "pgog._laws",
      "pgog.cosets", "pgog.collapse"}),
    (("run-all",), {"pgog.cosets", "pgog.collapse"}, {"pgog._laws"}),
    (("parse", "src/pgog/data/heisenberg_chain.gog"), set(),
     {"pgog.registry", "pgog.amalgam", "pgog.cosets"}),
], ids=["verify-all", "run-all", "parse"])
def test_a_command_imports_only_what_it_runs(argv, used, unused):
    # cli imports each layer inside the command that uses it, and no
    # record class pulls in dataclasses (inspect, ast, dis); no layout of
    # these commands is called often enough to compile its law.  The coset
    # enumerator and the collapse detector load only when called, and
    # run-all calls both through their entry points
    code, loaded = modules_after(*argv)
    assert code == 0
    assert used <= loaded
    assert not loaded & (unused | {"dataclasses"})


def test_a_long_command_compiles_its_hot_layouts():
    # the level-5 search calls its transversal layouts past the kernel's
    # HOT_CALLS, so its normal forms run on compiled laws
    code, loaded = modules_after("separate", "--p", "2", "--word",
                                 "G5:k5 L5:t", "--max-level", "5")
    assert code == 0 and "pgog._laws" in loaded


def test_verify_all_rejects_a_composite_prime(capsys):
    # every --p is checked, and bounded, before any work: no example runs,
    # no rank is taken mod 9, no trial division runs up to 10^9
    for argv, message in [
            (("tower", "verify-all", "--p", "4", "--max-level", "1"),
             "p must be prime, got 4"),
            (("run-all", "--p", "4"), "p must be prime, got 4"),
            (("collapse", data_path("heisenberg_chain.gog"), "--p", "9"),
             "p must be prime, got 9"),
            (("tower", "verify-all", "--p", str(10 ** 18 + 3),
              "--max-level", "1"), "p = 1000000000000000003 exceeds")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


@pytest.mark.parametrize("argv, message", [
    (("tower", "verify-all", "--max-level", "0"),
     "error: --max-level must be >= 1, got 0\n"),
    (("tower", "verify-all", "--max-level", "-1"),
     "error: --max-level must be >= 1, got -1\n"),
    (("tower", "build", "--n", "0"), "error: --n must be >= 1, got 0\n"),
    (("tower", "build", "--m", "-1"), "error: --m must be >= 0, got -1\n"),
    (("run", "models/certification", "--n", "0"),
     "error: --n must be >= 1, got 0\n"),
    (("run-all", "--max-level", "0"),
     "error: --max-level must be >= 1, got 0\n"),
    (("separate", "--word", "L1:t", "--max-level", "0"),
     "error: --max-level must be >= 1, got 0\n"),
    (("separate", "--word", "L1:t", "--start-level", "0"),
     "error: --start-level must be >= 1, got 0\n"),
    # a lamp letter is folded down from its native level, where its lamps
    # must exist: Lamp(2,1) has h0 and h1 only
    (("separate", "--p", "2", "--word", "L1:h5"),
     "error: letter 0 at L1: Lamp(2,1) has no generator h5\n"),
    (("separate", "--p", "2", "--word", "L2:h7"),
     "error: letter 0 at L2: Lamp(2,2) has no generator h7\n"),
    (("separate", "--p", "2", "--word", "G2:k1 L3:h9"),
     "error: letter 1 at L3: Lamp(2,3) has no generator h9\n"),
    # a document's word is held to the same rules as separate's
    (("parse", str(ROOT / "tests" / "data" / "word_missing_generators.gog")),
     "error: line 6, column 11: letter 0 at G1: 'no image for generator "
     "h3'\n"),
    # every search through G8 at p = 2 builds SCW(2,8), over the budget
    (("parse", str(ROOT / "tests" / "data" / "word_over_budget.gog")),
     "error: line 7, column 11: SCW(2,8) needs 266 generators of 34819 "
     "coordinates, over the 2^22 coordinate budget\n"),
    # tags and lamp names take ASCII digits only
    (("separate", "--word", "G\u0661:k1 L1:t"),
     "error: line 1, column 7: path letters live at vertices 'G<i>', got "
     "'G\u0661'\n"),
    (("separate", "--word", "L1:h\u00b2"),
     "error: line 1, column 6: lamp letter: unknown generator 'h\u00b2'\n"),
    (("run-all", "--examples", "nothing"),
     "error: no example id matches 'nothing'; known ids: "
     "chains/improper-n2, "),
    # no example reads a tail length, and --m is no prefix of --max-level
    (("run-all", "--m", "1"), "usage: pgog [-h]"),
    (("run", "tower/path-witness", "--n", "11"),
     "error: EA(2;2049 names) needs 2049 generators of 2049 coordinates, "
     "over the 2^22 coordinate budget\n"),
    (("run", "tower/two-generation", "--p", "4099"),
     "error: EA(4099;4099 names) needs 4099 generators of 4099 "
     "coordinates, over the 2^22 coordinate budget\n"),
], ids=["max-level-0", "max-level-negative", "build-n-0", "build-m-negative",
        "run-n-0", "run-all-max-level-0", "separate-max-level-0",
        "separate-start-level-0",
        "separate-no-lamp-h5", "separate-no-lamp-h7", "separate-no-lamp-h9",
        "parse-word-missing-generators", "parse-word-over-budget",
        "separate-non-ascii-vertex",
        "separate-non-ascii-lamp", "empty-glob", "run-all-m",
        "run-over-budget-level", "run-over-budget-prime"])
def test_usage_errors_exit_2_without_a_report(capsys, argv, message):
    # a level below 1, a negative tail, a glob that selects no example, a
    # lamp that its letter's level lacks, a document word that separate
    # refuses, a tag or lamp name with a digit outside 0-9 or a level over
    # the coordinate budget is unusable input: no report, not "no checks
    # -> exit 0" or a failure
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith(message)


@pytest.mark.parametrize("argv, message", [
    (("verify-all", "--p", "4099", "--max-level", "1"),
     "error: EA(4099;4099 names) needs 4099 generators of 4099 "
     "coordinates, over the 2^22 coordinate budget\n"),
    (("verify-all", "--p", "47", "--max-level", "1"),
     "error: Fn(47,2) needs 2211 generators of 2211 coordinates, over the "
     "2^22 coordinate budget\n"),
    (("build", "--p", "2", "--n", "9", "--m", "2"),
     "error: EA(2;2049 names) needs 2049 generators of 2049 coordinates, "
     "over the 2^22 coordinate budget\n"),
], ids=["verify-all-lamps", "verify-all-witness", "build-tail"])
def test_over_budget_levels_exit_2_before_any_model_is_built(
        capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr("pgog.models.FiniteGroupModel.__init__", refuse)
    code, out, err = run_cli(capsys, "tower", *argv, "--json")
    assert (code, out, err) == (2, "", message)


def test_over_budget_separate_exits_2_before_any_witness_is_built(
        capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a witness was built")

    # the first witness-building call of the level cache: the budget
    # pre-check must refuse the level before it is reached
    monkeypatch.setattr("pgog.amalgam.joined_witness_specialisation", refuse)
    code, out, err = run_cli(capsys, "separate", "--p", "2", "--word", "G8:k8",
                             "--max-level", "8", "--json")
    assert (code, out) == (2, "") and err.startswith("error: SCW(2,8) needs")


def test_separate_budgets_only_the_witness_it_builds(capsys):
    # the path witness target Fn(47,2) is over the budget, but separate
    # builds only the joined witness, En(47,1) at level 1
    code, out, err = run_cli(capsys, "separate", "--p", "47", "--word",
                             "G1:k1 L1:t", "--json")
    assert (code, err) == (0, "")
    [check] = json.loads(out)["checks"]
    assert check["status"] == "pass"
    assert (check["details"]["level"], check["details"]["target"]) == \
        (1, "En(47,1)")


def test_separate_command_paths(capsys):
    code, out, _ = run_cli(capsys, "separate", "--word", "G1:k1 L1:t", "--json")
    assert code == 0
    details = json.loads(out)["checks"][0]["details"]
    assert details["level"] == 1 and details["reverified"] is True

    code, out, _ = run_cli(capsys, "separate", "--word", "G1:k1*k1")
    assert code == 0 and "trivial element" in out

    # only level 1 holds both letters, and the message names that range
    code, out, _ = run_cli(capsys, "separate", "--word", "L1:t L2:t",
                           "--max-level", "3")
    assert code == 0 and "unknown" in out and \
        "inconclusive: no level in [1, 1] certifies the word" in out

    # no level holds every letter: nothing was searched, so no report
    for argv in (("--word", "G3:k3", "--max-level", "2"),
                 ("--word", "L1:t G2:k2")):
        code, out, err = run_cli(capsys, "separate", *argv)
        assert code == 2 and out == "" and "holds every letter" in err

    code, _, err = run_cli(capsys, "separate", "--word", "G1:zz")
    assert code == 2 and "no image for generator" in err

    code, out, err = run_cli(capsys, "separate", "--word", "G1:k1 #L1:t")
    assert code == 2 and out == "" and "cannot appear in a word" in err

    # leading zeros in a tag are ignored: G01 is G1
    _, out, _ = run_cli(capsys, "separate", "--word", "G1:k1 L1:t", "--json")
    code, zero, _ = run_cli(capsys, "separate", "--word", "G01:k1 L1:t",
                            "--json")
    assert code == 0
    assert json.loads(zero)["checks"] == json.loads(out)["checks"]

    # G16 is refused before any of its coordinates are allocated
    code, out, err = run_cli(capsys, "separate", "--word", "G16:k16",
                             "--max-level", "16")
    assert code == 2 and out == "" and "coordinate budget" in err


def test_a_certificate_that_does_not_reevaluate_reads_fail(
        capsys, monkeypatch):
    from pgog import amalgam

    monkeypatch.setattr(amalgam.SeparationCertificate, "reevaluate",
                        lambda cert: cert.specialisation.target.identity)
    code, out, _ = run_cli(capsys, "separate", "--word", "G1:k1 L1:t",
                           "--json")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["status"] == "fail"
    assert check["details"]["reverified"] is False


def test_failed_witness_in_separate_reads_fail_not_a_usage_error(
        capsys, monkeypatch):
    from pgog import amalgam

    def failing(spec):
        raise ValueError(f"witness {spec.name} failed: []")

    monkeypatch.setattr(amalgam, "certified", failing)
    # a fresh level cache, so that levels certified earlier are rebuilt
    monkeypatch.setattr(amalgam, "_level_data", functools.lru_cache(None)(
        amalgam._level_data.__wrapped__))
    code, out, _ = run_cli(capsys, "separate", "--word", "G1:k1 L1:t",
                           "--json")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["status"] == "fail"
    assert check["details"]["reason"] == "witness J1->En(2,1) failed: []"
    # input no search can use is still refused before it starts
    for argv in (["--word", "G1:zz"], ["--word", "G0:k1"],
                 ["--word", "L1:t", "--p", "4"],
                 ["--word", "L1:t", "--start-level", "0"]):
        code, out, _ = run_cli(capsys, "separate", *argv)
        assert code == 2 and out == ""


@pytest.mark.parametrize("argv, witnesses", [
    (("run", "tower/path-witness"), 1),
    (("run", "tower/joined-witness"), 1),
    (("run", "separation/mixed-word"), 1),
    (("run-all",), 4),
    (("tower", "verify-all", "--p", "2", "--max-level", "2"), 4),
], ids=["path-witness", "joined-witness", "mixed-word", "run-all",
        "verify-all"])
def test_a_command_certifies_only_the_witnesses_it_reports(
        capsys, monkeypatch, argv, witnesses):
    from pgog import amalgam, gog
    made = []
    init = gog.PropernessWitness.__init__

    def counting(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(gog.PropernessWitness, "__init__", counting)
    # a fresh level cache, so that separate certifies as a new process does
    monkeypatch.setattr(amalgam, "_level_data", functools.lru_cache(None)(
        amalgam._level_data.__wrapped__))
    code, _, _ = run_cli(capsys, *argv, "--json")
    assert code == 0 and len(made) == witnesses


def test_joined_witness_examples_build_no_path_witness_model(capsys):
    # Fn(47,2) is over the budget; only the path witness needs it
    for example in ("tower/joined-witness", "separation/mixed-word"):
        code, out, err = run_cli(capsys, "run", example, "--p", "47",
                                 "--json")
        assert (code, err) == (0, "")
        assert {c["status"] for c in json.loads(out)["checks"]} == {"pass"}
    code, out, err = run_cli(capsys, "run", "tower/path-witness", "--p", "47")
    assert (code, out) == (2, "")
    assert err == ("error: Fn(47,2) needs 2211 generators of 2211 "
                   "coordinates, over the 2^22 coordinate budget\n")


def test_run_and_run_all_commands(capsys):
    code, out, _ = run_cli(capsys, "run", "chains/improper-n2")
    assert code == 0 and "expected-outcome" in out

    code, _, err = run_cli(capsys, "run", "nope")
    assert code == 2 and "unregistered" in err

    code, out, _ = run_cli(capsys, "run-all", "--examples", "chains/*",
                           "--p", "3")
    assert code == 0
    assert "chains/improper-n5" in out and "fail" not in out

    code, out, err = run_cli(capsys, "run-all", "--examples", "no-such/*")
    assert code == 2 and out == ""
    assert "no example id matches 'no-such/*'" in err


def test_cli_json_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "collapse",
                          data_path("heisenberg_chain.gog"), "--json")
    _, second, _ = run_cli(capsys, "collapse",
                           data_path("heisenberg_chain.gog"), "--json")
    assert first == second


# sha256 of the --json stdout and the exit code of each command.  A change
# that alters report bytes on purpose updates its digest and says so.
PINNED_REPORTS = [
    (("tower", "verify-all", "--p", "2", "--max-level", "3"),
     "387eba3aa017e91729f93af41183d3b2154cd89253a4e9a1e5527c644f53a594", 0),
    (("tower", "verify-all", "--p", "3", "--max-level", "2"),
     "6636e25e4ae9b522d43e5d05112473900907c55b1d052231808c18fa918013ff", 0),
    # level 4 and p = 5: more rank rows, relators and MOD shifts
    (("tower", "verify-all", "--p", "2", "--max-level", "4"),
     "0ad6f7cbcff2b85323ce437327e124ebb843b1fcb8fca091aee81740d620eacb", 0),
    (("tower", "verify-all", "--p", "5", "--max-level", "2"),
     "a1ab6ec928780cd8d9ce537fccf3ab8d9288430d9bdfc05a573efc647b85356a", 0),
    (("run-all",),
     "9bf92f9ab66fc534a3a6ef7a64ecb966c0a2f60846fab3865153587ca048fce1", 0),
    (("run-all", "--p", "3"),
     "2db6dabfa1d3be13b323447f29867b45d53160e245643df7441481d75e6a437f", 0),
    (("tower", "build", "--p", "2", "--n", "2", "--m", "1"),
     "820a8d295786412ba50d89995e508381b6d710e9d7823593f603e2b610353cb2", 0),
    (("separate", "--p", "2", "--word", "G1:k1 L1:t"),
     "33b28362f675ff136232fa69ec7ece0292dac5d9970f0c36c632e0c9e78ec2b3", 0),
    # a document's report records its path as given, from the repo root
    (("bound", "src/pgog/data/free_line.gog"),
     "07113a49ae06ebcbc27748d197fdd23d70bdad703c9e4fdbea912710e2eab88b", 0),
    (("parse", "src/pgog/data/free_line.gog"),
     "55aeb358534a70e8026ddedc37251879f1c0372d210940bf004606d18bde60cc", 0),
    # failing witnesses: prime, edge-compatibility and injectivity
    # violations in the details of failing checks
    (("parse", "tests/data/failing_witnesses.gog"),
     "7f68ead3d496b98424cc192211bd2a2c35af9d42235186aaedc4f4361e89ea2c", 1),
    (("bound", "tests/data/failing_witnesses.gog"),
     "722667cbb0dd413ee5b54dc710cce78109b3950c717a8c01262352ba23cdb839", 1),
    # a witnessed splitting that is not reduced: the witness passes and
    # the edge bound, which presumes a reduced splitting, fails
    (("bound", "tests/data/unreduced_line.gog"),
     "7be6f1e14d6106bc3db467c749bdb755a7fdfda0955bb3384f2181d7c369b174", 1),
    (("parse", "tests/data/unreduced_line.gog"),
     "338ebc00f620013e18ae427d8f7554ef3ee260909bf1e5c37d41999795dd8aeb", 0),
    (("run", "tower/path-witness"),
     "4d21678bf1478bb44033a2240d1c20a495650d8e63cc15f5592eb3c9024c9090", 0),
    (("run", "tower/joined-witness"),
     "4cde5d4c24085e527c64d007556aad918338d317ba3d5465735334c2f90adbef", 0),
]


@pytest.mark.parametrize("argv,digest,exit_code", PINNED_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_REPORTS])
def test_pinned_report_bytes(capsys, monkeypatch, argv, digest, exit_code):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def run_entry(*argv):
    """Exit code and stdout bytes of `python -m pgog.cli ARGV` in a fresh
    process, through the process entry cli.run."""
    done = subprocess.run(
        [sys.executable, "-m", "pgog.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT, capture_output=True, timeout=300)
    return done.returncode, done.stdout


def test_the_process_entry_keeps_bytes_and_exit_codes(tmp_path):
    argv, digest, _ = PINNED_REPORTS[0]
    code, out = run_entry(*argv, "--json")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest
    assert run_entry("separate", "--p", "2", "--word", "L0:t",
                     "--json") == (2, b"")
    doc = tmp_path / "w.gog"
    doc.write_text("p 2\ngraph g\nvertex A : EA(a)\n"
                   "witness W : EA(x, y, p=3) map A.a -> x\n")
    code, _ = run_entry("parse", str(doc), "--json")
    assert code == 1


def test_the_pgog_script_is_the_process_entry():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\npgog = "pgog\.cli:run"$',
                     pyproject, re.M)


def test_cli_json_matches_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "report.schema.json")
        .read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for argv in (
        ["parse", data_path("free_line.gog"), "--json"],
        ["bound", data_path("free_line.gog"), "--json"],
        ["separate", "--word", "G1:k1 L1:t", "--json"],
        ["tower", "build", "--p", "2", "--n", "1", "--m", "0", "--json"],
        ["run", "lines/single-edge-properness", "--json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)
        validator.validate(data)
        assert data["exit_code"] == code


# -- registry ------------------------------------------------------------------


def test_registry_ids_are_unique_and_claims_set():
    ids = registry.example_ids()
    assert len(ids) == len(set(ids))
    for entry in registry.ENTRIES:
        assert entry.claim and entry.expected in (reports.PASS, reports.SKIP)


def test_run_example_pins_expected_outcome():
    report = registry.run_example("lines/single-edge-properness")
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses["single-edge-properness"] == reports.SKIP
    assert statuses["expected-outcome"] == reports.PASS
    assert report.exit_code == 0


@pytest.mark.parametrize("statuses,outcome", [
    ([], "pass"),
    (["pass", "skip"], "pass"),
    (["skip"], "skip"),
    (["pass", "unknown", "skip"], "unknown"),
    (["unknown", "fail", "pass"], "fail"),
])
def test_aggregate_ranks_fail_over_unknown_over_pass(statuses, outcome):
    checks = [reports.make_check(f"c{i}", s) for i, s in enumerate(statuses)]
    assert registry._aggregate(checks) == outcome


def test_a_coset_count_that_runs_out_reads_unknown(monkeypatch):
    # an enumeration stopped by its coset cap has decided nothing, so the
    # example is undecided, not failed
    from pgog import presentations

    enumerate_cosets = presentations.coset_enumerate
    monkeypatch.setattr(presentations, "coset_enumerate",
                        lambda pres: enumerate_cosets(pres, max_cosets=8))
    report = registry.run_example("models/certification")
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses["coset-count level-group"] == reports.UNKNOWN
    assert statuses["expected-outcome"] == reports.UNKNOWN
    assert report.exit_code == 0


def test_certification_example_passes_at_every_level():
    # the path witness certified is Fn(p, 2) at any --n
    report = registry.run_example("models/certification", n=3)
    statuses = [c["status"] for c in report.checks]
    assert reports.FAIL not in statuses and statuses.count(reports.PASS) == 7
    assert report.exit_code == 0


def test_run_all_aggregates_in_registry_order():
    report = registry.run_all("chains/*")
    names = [c["name"] for c in report.checks]
    assert names[0].startswith("chains/improper-n2")
    assert names[-1].startswith("chains/improper-n5")
    assert report.exit_code == 0


def test_every_operation_is_reachable_from_the_cli():
    surface = {
        "dsl": ["parse_dsl", "parse_word"],
        "analysis": ["detect_collapse", "check_edge_bound",
                     "extract_bracket_rules"],
        "gog": ["fundamental_presentation", "verify_specialisation",
                "verify_properness_witness", "check_reduced",
                "bracket_subgraph", "spanning_tree"],
        "presentations": ["check_model_satisfies", "coset_enumerate",
                          "mod_p_rank"],
        "tower": ["build_level", "build_graphs", "build_witnesses",
                  "check_retraction_square", "check_transition_maps",
                  "check_two_generation", "transition_images",
                  "composed_transition_images", "double_fold_images", "mu"],
        "amalgam": ["build_transversals", "normal_form", "nf_multiply",
                    "separate"],
        "registry": ["run_example", "run_all"],
    }
    package = Path(cli.__file__).parent
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py")))
    cli_reachable = (package / "cli.py").read_text() \
        + (package / "registry.py").read_text()
    for module, names in surface.items():
        for name in names:
            # defined somewhere and referenced by the CLI layer directly,
            # or invoked transitively by an operation that is
            assert re.search(rf"\b{name}\b", source), name
            direct = re.search(rf"\b{name}\b", cli_reachable)
            transitive = re.search(
                rf"^(?!.*def {name}).*\b{name}\(", source, re.M)
            assert direct or transitive, f"{module}.{name} unreachable"


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_statuses_come_from_exception_types_not_messages():
    # no handler decides what to do by reading an exception's message
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        handlers = [node for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ExceptHandler)]
        for handler in handlers:
            where = f"{path.name}:{handler.lineno}"
            if handler.name is None:
                continue
            # the caught exception, and names bound from it in the handler
            derived = {handler.name}
            for node in ast.walk(handler):
                if isinstance(node, ast.Assign) and \
                        _names(node.value) & derived:
                    for target in node.targets:
                        derived |= _names(target)
            for node in ast.walk(handler):
                if isinstance(node, ast.Compare):
                    inspected = node
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("startswith", "endswith", "find",
                                           "match", "search", "fullmatch"):
                    inspected = node
                else:
                    continue
                assert not _names(inspected) & derived, \
                    f"{where} matches on an exception's message"


def _docstrings(tree):
    """ids of the nodes of docstrings, whose "pass" is text, not a status."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_only_reports_spells_a_status_and_no_record_has_a_check_key():
    # a status is reports.PASS, FAIL, UNKNOWN or SKIP, or reports.status(ok);
    # a verification returns the report check itself, {name, status,
    # details}, never a {check, ...} record
    statuses = {reports.PASS, reports.FAIL, reports.UNKNOWN, reports.SKIP}
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = _docstrings(tree)
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and path.name != "reports.py":
                assert node.value not in statuses or id(node) in exempt, \
                    f"{where} spells the status {node.value!r}"
            if isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys
                        if isinstance(k, ast.Constant)]
                assert "check" not in keys, f"{where} builds a check record"


def test_tower_checks_are_reported_under_the_names_they_return():
    from pgog import tower
    reported = cli._tower_verify_checks(2, 2)
    returned = [tower.check_retraction_square(tower.build_level(2, 2))]
    returned += [tower.check_transition_maps(2, n, m)
                 for n, m in ((0, 1), (1, 0))]
    returned += [tower.check_two_generation(2, n) for n in (1, 2)]
    for check in returned:
        assert check in reported, check


def _closure_references(node, where=None):
    """(enclosing function or class, node) for every name or attribute
    `closure`, the exhaustive breadth-first enumeration."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id == "closure" or \
                isinstance(child, ast.Attribute) and child.attr == "closure":
            yield where, child
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        yield from _closure_references(child, inner)


def test_no_command_path_encloses_a_group():
    # kernel.closure lists every element of a subgroup.  It stays as the
    # reference the tests check the sifts against, reached only through
    # FiniteGroupModel.closure; nothing else in the package refers to it.
    package = Path(cli.__file__).parent
    found = {(path.name, where, ast.unparse(node))
             for path in sorted(package.glob("*.py"))
             for where, node in _closure_references(
                 ast.parse(path.read_text()))}
    assert found == {("models.py", "FiniteGroupModel.closure",
                      "kernel.closure")}
