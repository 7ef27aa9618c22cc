"""Collapse detection and the edge-count bound.

The divergence classifier is checked two ways: handcrafted rule extraction
cases, and a long-run numeric simulation of the depth fixpoint (no structural
shortcut) that must agree exactly with the structural classification.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgog import models, reports
from pgog import presentations as P
from pgog.analysis import check_edge_bound, detect_collapse, fundamental_rank
from pgog.collapse import extract_bracket_rules
from pgog.dsl import parse_dsl
from pgog.gog import (Graph, GraphOfGroups, Specialisation, VertexData,
                      bracket_subgraph, check_reduced,
                      fundamental_presentation, verify_properness_witness)
from pgog.registry import (free_product_line, improper_heisenberg_chain,
                           improper_two_edge_line, shipped_document)
from pgog.words import commutator, from_letters, gen


def pres(gens, relators):
    return P.FinitePresentation(list(gens), list(relators))


def rule_set(rules):
    return {(r.defined, repr(r.left), repr(r.right)) for r in rules}


# -- rule extraction -------------------------------------------------------------

def test_extracts_defined_equals_bracket():
    rules = extract_bracket_rules(
        pres("abc", [~gen("c") * commutator(gen("a"), gen("b"))]))
    assert rule_set(rules) == {("c", "a", "b")}


def test_extracts_bracket_equals_defined():
    # [a,b] = c spelled as [a,b]^-1 c = [b,a] c
    rules = extract_bracket_rules(
        pres("abc", [commutator(gen("b"), gen("a")) * gen("c")]))
    assert rule_set(rules) == {("c", "a", "b")}


def test_extraction_sees_cyclic_rotations():
    base = ~gen("c") * commutator(gen("a"), gen("b"))
    letters = tuple(base.letters())
    for i in range(len(letters)):
        rotated = from_letters(letters[i:] + letters[:i])
        rules = extract_bracket_rules(pres("abc", [rotated]))
        assert ("c", "a", "b") in rule_set(rules), f"rotation {i}"


def test_extraction_handles_word_sides():
    u, v = gen("a") * gen("b"), gen("d") * gen("e")
    rules = extract_bracket_rules(pres("abcde", [~gen("c") * commutator(u, v)]))
    assert ("c", repr(u), repr(v)) in rule_set(rules)


def test_extraction_skips_shapes_destroyed_by_reduction():
    # [ab, da^-1] loses its literal commutator spelling under free reduction
    u, v = gen("a") * gen("b"), gen("d") * ~gen("a")
    rules = extract_bracket_rules(pres("abcd", [~gen("c") * commutator(u, v)]))
    assert rules == ()


def test_powers_and_commutations_are_ignored():
    quiet = [gen("a", 5), commutator(gen("a"), gen("b")),
             commutator(gen("a"), gen("b")) ** 3]
    assert extract_bracket_rules(pres("ab", quiet)) == ()


def test_heisenberg_presentation_yields_no_rules():
    for p in (2, 3):
        assert extract_bracket_rules(P.heisenberg_presentation(p)) == ()


# -- collapse on reference objects ----------------------------------------------

def test_chain_presentation_collapses_without_diverging():
    # the two-layer twist relator k2 = [k1, h2] is a rule but not a cycle
    report = detect_collapse(P.gn_presentation(2, 2), 2)
    assert report.collapsed == ()
    assert not report.improper
    assert report.depths["k2"] == 2
    assert report.depths["k1"] == 1 and report.depths["h2"] == 1
    assert report.residual_rank == P.mod_p_rank(P.gn_presentation(2, 2), 2)


def test_fn_depths_step_up_the_chain():
    report = detect_collapse(P.fn_presentation(2, 3), 2)
    assert report.collapsed == ()
    assert (report.depths["k1"], report.depths["k2"], report.depths["k3"]) == (1, 2, 3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("levels", [2, 3, 4, 5])
def test_heisenberg_chain_collapse(p, levels):
    gog = improper_heisenberg_chain(p, levels)
    fp = fundamental_presentation(gog)
    report = detect_collapse(fp, p)
    inner = {f"a{i}" for i in range(2, levels + 1)}
    inner |= {f"b{i}" for i in range(1, levels)}
    assert set(report.collapsed) == inner
    assert math.isinf(report.depths["a2"])
    assert report.depths["a1"] == 1 and report.depths[f"b{levels}"] == 1
    assert set(report.residual.generators) == {"a1", f"b{levels}"}
    assert set(map(repr, report.residual.relators)) == {f"a1^{p}", f"b{levels}^{p}"}
    assert report.residual_rank == 2


@pytest.mark.parametrize("p", [2, 3])
def test_two_edge_line_collapse(p):
    fp = fundamental_presentation(improper_two_edge_line(p))
    report = detect_collapse(fp, p)
    assert set(report.collapsed) == {"x1", "x2", "x3", "x4"}
    assert all(report.depths[f"y{i}"] == 1 for i in range(1, 5))


def test_collapsed_generators_die_in_every_specialisation():
    # fixpoint images: live generators go to Heisenberg generators, diverging
    # ones to the identity; the relators then hold, so the detector's verdict
    # matches an actual finite specialisation
    gog = improper_heisenberg_chain(2, 2)
    fp = fundamental_presentation(gog)
    report = detect_collapse(fp, 2)
    target = models.HeisenbergModP(2)
    images = {"a1": target.generators["x"], "b2": target.generators["y"],
              "a2": target.identity, "b1": target.identity}
    hom = P.GroupHom(fp, target, images)
    assert hom.verify()["status"] == "pass"
    for name in report.collapsed:
        assert hom.image_of(name).is_identity
    assert not hom.image_of("a1").is_identity


# -- simulation oracle for the classifier ----------------------------------------

GENS = tuple(f"g{i}" for i in range(6))


def simulate(rules, generators, rounds):
    depth = {g: 1 for g in generators}
    for _ in range(rounds):
        changed = False
        for rule in rules:
            bound = (min(depth[n] for n in rule.left.names())
                     + min(depth[n] for n in rule.right.names()))
            if bound > depth[rule.defined]:
                depth[rule.defined] = bound
                changed = True
        if not changed:
            break
    return depth


def side_words(draw):
    k = draw(st.integers(1, 2))
    letters = [(draw(st.sampled_from(GENS)), draw(st.sampled_from((1, -1))))
               for _ in range(k)]
    return from_letters(letters)


@st.composite
def rule_presentations(draw):
    relators = []
    for _ in range(draw(st.integers(1, 7))):
        defined = draw(st.sampled_from(GENS))
        u, v = side_words(draw), side_words(draw)
        if not u or not v:
            continue
        relators.append(~gen(defined) * commutator(u, v))
    return pres(GENS, relators)


@settings(max_examples=150, deadline=None)
@given(rule_presentations())
def test_classifier_matches_long_run_simulation(presentation):
    report = detect_collapse(presentation, 2)
    rules = extract_bracket_rules(presentation)
    early = simulate(rules, GENS, 120)
    late = simulate(rules, GENS, 240)
    still_growing = {g for g in GENS if late[g] > early[g]}
    assert set(report.collapsed) == still_growing
    for g in GENS:
        if g not in report.collapsed:
            assert report.depths[g] == late[g]


@settings(max_examples=100, deadline=None)
@given(rule_presentations(), rule_presentations())
def test_adding_relators_never_shrinks_the_collapsed_set(first, second):
    merged = pres(GENS, list(first.relators) + list(second.relators))
    before = set(detect_collapse(first, 2).collapsed)
    after = set(detect_collapse(merged, 2).collapsed)
    assert before <= after


# -- edge bound -------------------------------------------------------------------

def free_product_witness(gog, p):
    target = models.ElementaryAbelian(p, ["a", "b"])
    spec = Specialisation(gog, target, {
        "L": {"a": target.generators["a"]},
        "R": {"b": target.generators["b"]}})
    return verify_properness_witness(spec)


@pytest.mark.parametrize("p", [2, 3])
def test_edge_bound_on_free_product_line(p):
    gog = free_product_line(p)
    witness = free_product_witness(gog, p)
    assert witness.valid
    report = check_edge_bound(witness)
    assert report["name"] == "edge-bound"
    details = report["details"]
    assert details["edge_count"] == 1 and details["max_edge_order"] == 1
    assert details["rank"] == 2
    assert details["edge_bound"] == Fraction(p, p - 1) + 1
    assert details["edge_sum"] == 1
    assert details["rank_side"] == Fraction(2 * p, p - 1)
    assert report["status"] == reports.PASS


def small_path_with_witness():
    from tests.test_gog import small_path_gog, witness_maps
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    spec = Specialisation(gog, fn, witness_maps(gog, fn, fn.generators["k2"]))
    return gog, verify_properness_witness(spec)


def test_edge_bound_exact_values_on_amalgam():
    gog, witness = small_path_with_witness()
    report = check_edge_bound(witness)
    assert report["details"]["edge_count"] == 1
    assert report["details"]["max_edge_order"] == 8
    assert report["details"]["rank"] == 6
    assert report["details"]["edge_bound"] == Fraction(81)
    assert report["details"]["edge_sum"] == Fraction(1, 8)
    assert report["details"]["rank_side"] == Fraction(12)
    assert report["status"] == reports.PASS


def test_edge_bound_refuses_without_witness():
    with pytest.raises(ValueError, match="witness"):
        check_edge_bound(None)


def test_edge_bound_refuses_invalid_witness():
    gog, _ = small_path_with_witness()
    from tests.test_gog import witness_maps
    fn = models.FnModel(2, 2)
    bad = Specialisation(gog, fn, witness_maps(gog, fn, fn.identity))
    witness = verify_properness_witness(bad)
    assert not witness.valid
    with pytest.raises(ValueError, match="failed verification"):
        check_edge_bound(witness)


def test_edge_bound_is_skipped_on_an_unreduced_splitting(monkeypatch):
    # three copies of Z/2 glued along isomorphisms: pi_1 is Z/2, of rank 1,
    # so the bound would allow 1 edge, and the splitting has 2.  The bound
    # presumes a reduced splitting, so it does not apply here
    path = Path(__file__).parent / "data" / "unreduced_line.gog"
    doc = parse_dsl(path.read_text())
    witness = verify_properness_witness(doc.witnesses["W"])
    assert witness.valid
    assert fundamental_rank(witness.specialisation.gog, 2) == 1
    assert not check_reduced(witness.specialisation.gog)

    def refuse(witness):
        raise AssertionError("the edge bound ran on an unreduced splitting")

    monkeypatch.setattr("pgog.analysis.check_edge_bound", refuse)
    _, bound = reports.witness_checks(witness, "W")
    assert bound == reports.make_check(
        "edge-bound W", reports.SKIP,
        reason="splitting is not reduced; the edge bound presumes a "
               "reduced splitting")


def test_edge_bound_fails_on_a_reduced_splitting_over_its_bound(monkeypatch):
    # the (2,2) joined splitting is reduced and has 2 edges; at a stubbed
    # rank of 1 the bound allows 1 edge, so the check still reads fail
    from pgog.gog import certified
    from pgog.tower import joined_witness_specialisation
    gog, spec = joined_witness_specialisation(2, 2)
    witness = certified(spec)
    assert check_reduced(gog)
    _, bound = reports.witness_checks(witness, "W")
    assert bound["status"] == reports.PASS
    monkeypatch.setattr("pgog.analysis.fundamental_rank", lambda gog, p: 1)
    _, bound = reports.witness_checks(witness, "W")
    assert bound["name"] == "edge-bound W"
    assert bound["status"] == reports.FAIL
    details = bound["details"]
    assert (details["edge_count"], details["edge_bound"], details["rank"]) \
        == (2, 1, 1)
    assert not details["edge_count_ok"] and details["edge_sum_ok"]


@pytest.mark.parametrize("p", [2, 3])
def test_edge_bound_refuses_a_trivial_fundamental_group(p):
    # at rank 0 the edge bound's right side is negative (-1 at p = 2,
    # -1/2 at p = 3), so the edgeless trivial group would read FAIL
    trivial = models.ElementaryAbelian(p, [])
    gog = GraphOfGroups(Graph(["A"], {}), {
        "A": VertexData(trivial, P.FinitePresentation([], [], name="1"))},
        {}, {})
    target = models.ElementaryAbelian(p, ["x"])
    witness = verify_properness_witness(
        Specialisation(gog, target, {"A": {}}))
    assert witness.valid
    with pytest.raises(ValueError, match="^fundamental group has mod-p rank "
                       "0; the edge bound presumes a nontrivial fundamental "
                       "group$"):
        check_edge_bound(witness)


def rank_cases():
    """(label, graph of groups, p) for the rank cross-check: the tower's
    splittings, the registry's lines, the shipped documents' graphs, a
    bracketed graph with a presentation-only vertex and a one-vertex loop,
    whose stable letter adds a column."""
    from pgog.tower import build_graphs
    for p, top in ((2, 4), (3, 2), (5, 2)):
        for n in range(1, top + 1):
            graphs = build_graphs(p, n, 0)
            for label in ("path", "tail", "joined"):
                yield f"{label}({p},{n})", getattr(graphs, label), p
    for p in (2, 3):
        yield f"free-line({p})", free_product_line(p), p
        for levels in range(2, 6):
            yield (f"heisenberg-chain({p},{levels})",
                   improper_heisenberg_chain(p, levels), p)
        yield f"two-edge-line({p})", improper_two_edge_line(p), p
    for name in ("free_line.gog", "heisenberg_chain.gog"):
        doc = shipped_document(name)
        for label, gog in doc.graphs.items():
            yield f"{name}:{label}", gog, doc.prime
    yield ("bracketed(2,3)",
           bracket_subgraph(build_graphs(2, 3, 0).path, ["G2", "G3"]), 2)
    a = models.ElementaryAbelian(2, ["a"])
    yield "loop", GraphOfGroups(
        Graph(["V"], {"loop": ("V", "V")}),
        {"V": VertexData(a, P.elementary_abelian_presentation(2, ["a"]))},
        {"loop": models.ElementaryAbelian(2, ["u"])},
        {"loop": ({"u": gen("a")}, {"u": gen("a")})}), 2


def test_fundamental_rank_is_that_of_the_fundamental_presentation():
    cases = list(rank_cases())
    assert len(cases) == 40
    for label, gog, p in cases:
        want = P.mod_p_rank(fundamental_presentation(gog), p)
        assert fundamental_rank(gog, p) == want, label
    graphs = {label: gog for label, gog, _ in cases}
    assert not all(vd.is_model
                   for vd in graphs["bracketed(2,3)"].vertices.values())
    assert fundamental_rank(graphs["loop"], 2) == 2     # a, stable letter


def test_fundamental_rank_refuses_a_vertex_without_a_presentation():
    gog = free_product_line(2)
    gog.vertices["R"] = VertexData(gog.vertices["R"].model)
    with pytest.raises(ValueError, match="vertex R lacks a certified "
                       "presentation"):
        fundamental_rank(gog, 2)


def test_fundamental_rank_does_not_depend_on_generator_names():
    # a vertex generator named like the loop's stable letter makes the
    # fundamental presentation refuse to name it; the rank, a, t_loop
    # and the stable letter, needs no names
    names = ["a", "t_loop"]
    a = models.ElementaryAbelian(2, names)
    gog = GraphOfGroups(
        Graph(["V"], {"loop": ("V", "V")}),
        {"V": VertexData(a, P.elementary_abelian_presentation(2, names))},
        {"loop": models.ElementaryAbelian(2, ["u"])},
        {"loop": ({"u": gen("a")}, {"u": gen("a")})})
    with pytest.raises(ValueError, match="stable letter names collide"):
        fundamental_presentation(gog)
    assert fundamental_rank(gog, 2) == 3
