"""Graph-of-groups assembly, fundamental presentations, witnesses."""

import pytest

from pgog import models
from pgog import presentations as P
from pgog.gog import (Graph, GraphOfGroups, Specialisation,
                      SpanningTree, VertexData, bracket_subgraph,
                      check_reduced, fp_naming, fundamental_presentation,
                      spanning_tree, verify_properness_witness,
                      verify_specialisation)
from pgog.registry import free_product_line, improper_heisenberg_chain
from pgog.words import Word, commutator, gen


def ea_vertex(p, names):
    return VertexData(models.ElementaryAbelian(p, names),
                      P.elementary_abelian_presentation(p, names))


def ea_edge(p, names):
    return models.ElementaryAbelian(p, names)


def small_path_gog(p=2):
    """Bottom vertex (elementary abelian) joined to a two-layer twist vertex
    over their shared rank-(1+p) subgroup."""
    g1_names = ["k1", "h0", "h1", "c"]
    k1_names = ["k1", "h0", "h1"]
    g2 = models.GnModel(p, 2)
    graph = Graph(["A1", "A2"], {"e1": ("A1", "A2")})
    vertex_data = {
        "A1": ea_vertex(p, g1_names),
        "A2": VertexData(g2, P.gn_presentation(p, 2)),
    }
    edge_models = {"e1": ea_edge(p, k1_names)}
    maps = {g: gen(g) for g in k1_names}
    return GraphOfGroups(graph, vertex_data, edge_models, {"e1": (maps, maps)})


# -- graph basics ---------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(["v", "v"], {})
    with pytest.raises(ValueError, match="unknown vertex"):
        Graph(["v"], {"e": ("v", "w")})
    with pytest.raises(ValueError, match="not connected"):
        Graph(["v", "w"], {})


def test_spanning_tree_shapes():
    path = Graph(["A", "B", "C"], {"e1": ("A", "B"), "e2": ("B", "C")})
    t = spanning_tree(path)
    assert t.root == "A" and t.edge_ids == ("e1", "e2")

    loop = Graph(["A"], {"e": ("A", "A")})
    t = spanning_tree(loop)
    assert t.edge_ids == ()

    triangle = Graph(["A", "B", "C"],
                     {"e1": ("A", "B"), "e2": ("B", "C"), "e3": ("C", "A")})
    t = spanning_tree(triangle)
    assert t.root == "A"
    assert t.edge_ids == ("e1", "e3")   # both ends of A first, BFS order


def test_spanning_tree_is_deterministic():
    g = Graph(["A", "B", "C"],
              {"e1": ("A", "B"), "e2": ("B", "C"), "e3": ("C", "A")})
    assert spanning_tree(g).edge_ids == spanning_tree(g).edge_ids


# -- assembly and certification ----------------------------------------------

def test_free_product_fundamental_presentation():
    gog = free_product_line(2)
    fp = fundamental_presentation(gog)
    assert set(fp.generators) == {"a", "b"}
    assert set(map(repr, fp.relators)) == {"a^2", "b^2"}
    assert P.mod_p_rank(fp, 2) == 2


def test_chain_fp_contains_bracket_relators():
    gog = improper_heisenberg_chain(2, 2)
    fp = fundamental_presentation(gog)
    assert set(fp.generators) == {"a1", "b1", "a2", "b2"}
    texts = set(map(repr, fp.relators))
    # b1 = [a2, b2] and [a1, b1] = a2, as inverse-pair relators
    assert repr(~gen("b1") * commutator(gen("a2"), gen("b2"))) in texts
    assert repr(~commutator(gen("a1"), gen("b1")) * gen("a2")) in texts


def test_name_qualification_only_on_collision():
    gog = small_path_gog()
    qual = fp_naming(gog)
    # k1, h0, h1 exist at both vertices; c, k2, h2, h3 are unique
    assert qual["A1"]["k1"] == "A1.k1" and qual["A2"]["k1"] == "A2.k1"
    assert qual["A1"]["c"] == "c"
    assert qual["A2"]["k2"] == "k2" and qual["A2"]["h3"] == "h3"
    fp = fundamental_presentation(gog)
    assert len(fp.generators) == 4 + 6
    assert P.mod_p_rank(fp, 2) == (4 + 6) - 3 - 1   # 3 identifications + k2 killed


def test_edge_map_must_be_homomorphism():
    p = 2
    heis = models.HeisenbergModP(p)
    graph = Graph(["H", "E"], {"e": ("H", "E")})
    with pytest.raises(ValueError, match="not a homomorphism"):
        GraphOfGroups(
            graph,
            {"H": VertexData(heis, P.heisenberg_presentation(p)),
             "E": ea_vertex(p, ["u", "v"])},
            {"e": ea_edge(p, ["u", "v"])},
            {"e": ({"u": gen("x"), "v": gen("y")},
                   {"u": gen("u"), "v": gen("v")})})


def test_edge_map_must_be_injective():
    p = 2
    graph = Graph(["L", "R"], {"e": ("L", "R")})
    a = models.ElementaryAbelian(p, ["a"])
    with pytest.raises(ValueError, match="not injective"):
        GraphOfGroups(
            graph,
            {"L": VertexData(a, P.elementary_abelian_presentation(p, ["a"])),
             "R": ea_vertex(p, ["b", "c"])},
            {"e": ea_edge(p, ["u", "v"])},
            {"e": ({"u": gen("a"), "v": gen("a")},
                   {"u": gen("b"), "v": gen("c")})})


def test_an_edge_image_given_as_an_element_is_refused():
    # a word is what the fundamental presentation needs; reading one off
    # an element would enumerate the vertex group
    gog = small_path_gog()
    maps = {g: gen(g) for g in gog.edges["e1"].generators}
    k1 = gog.vertices["A2"].model.generators["k1"]
    with pytest.raises(ValueError,
                       match="edge e1 end 1: the image of k1 must be a Word"):
        GraphOfGroups(gog.graph, gog.vertices, gog.edges,
                      {"e1": (maps, {**maps, "k1": k1})})


def test_vertex_presentation_must_certify():
    graph = Graph(["V"], {})
    with pytest.raises(ValueError, match="presentation not satisfied"):
        GraphOfGroups(
            graph,
            {"V": VertexData(models.CyclicModel(2, 2),
                             P.cyclic_presentation(2, 1))},
            {}, {})


def test_check_reduced():
    assert check_reduced(small_path_gog())
    assert check_reduced(improper_heisenberg_chain(2, 3))
    # an edge carrying the whole endpoint group is not reduced
    p = 2
    a = models.ElementaryAbelian(p, ["a"])
    gog = GraphOfGroups(
        Graph(["L", "R"], {"e": ("L", "R")}),
        {"L": VertexData(a, P.elementary_abelian_presentation(p, ["a"])),
         "R": ea_vertex(p, ["b", "c"])},
        {"e": ea_edge(p, ["u"])},
        {"e": ({"u": gen("a")}, {"u": gen("b")})})
    assert not check_reduced(gog)


def test_loop_brings_a_stable_letter():
    p = 2
    a = models.ElementaryAbelian(p, ["a"])
    gog = GraphOfGroups(
        Graph(["V"], {"loop": ("V", "V")}),
        {"V": VertexData(a, P.elementary_abelian_presentation(p, ["a"]))},
        {"loop": ea_edge(p, ["u"])},
        {"loop": ({"u": gen("a")}, {"u": gen("a")})})
    fp = fundamental_presentation(gog)
    assert "t_loop" in fp.generators
    assert any("t_loop" in r.names() for r in fp.relators)
    # abelianised, a^-1 t a t^-1 dies, so the rank counts both generators
    assert P.mod_p_rank(fp, p) == 2


def test_fp_rank_is_tree_independent():
    g = Graph(["A", "B", "C"],
              {"e1": ("A", "B"), "e2": ("B", "C"), "e3": ("C", "A")})
    gog = GraphOfGroups(
        g,
        {v: ea_vertex(2, [v.lower()]) for v in "ABC"},
        {e: ea_edge(2, []) for e in ("e1", "e2", "e3")},
        {e: ({}, {}) for e in ("e1", "e2", "e3")})
    ranks = set()
    for tree_edges in (("e1", "e2"), ("e2", "e3"), ("e1", "e3")):
        fp = fundamental_presentation(gog, SpanningTree("A", tree_edges))
        ranks.add(P.mod_p_rank(fp, 2))
    assert ranks == {4}   # a, b, c plus one stable letter


# -- specialisations and witnesses --------------------------------------------

def witness_maps(gog, target, c_image):
    maps = {
        "A1": {"k1": target.generators["k1"], "h0": target.generators["h0"],
               "h1": target.generators["h1"], "c": c_image},
        "A2": {g: target.generators[g] for g in gog.vertices["A2"].model.generators},
    }
    return maps


def test_specialisation_and_witness_pass():
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    spec = Specialisation(gog, fn, witness_maps(gog, fn, fn.generators["k2"]))
    report = verify_specialisation(spec)
    assert report["status"] == "pass", report["details"]["violations"]
    witness = verify_properness_witness(spec)
    assert witness.valid
    assert witness.vertex_image_orders == {"A1": 16, "A2": 64}


def test_specialisation_vertex_hom_violation():
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    maps = witness_maps(gog, fn, fn.generators["k2"])
    maps["A2"] = dict(maps["A2"])
    maps["A2"]["h2"], maps["A2"]["h3"] = maps["A2"]["h3"], maps["A2"]["h2"]
    report = verify_specialisation(Specialisation(gog, fn, maps))
    assert report["status"] == "fail"
    assert any(v["kind"] == "graph" and v["vertex"] == "A2"
               for v in report["details"]["violations"])


def test_specialisation_edge_compatibility_violation():
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    maps = witness_maps(gog, fn, fn.generators["k2"])
    maps["A1"] = dict(maps["A1"])
    maps["A1"]["h0"] = fn.generators["h1"]
    maps["A1"]["h1"] = fn.generators["h1"]   # still a hom, breaks the edge
    report = verify_specialisation(Specialisation(gog, fn, maps))
    assert report["status"] == "fail"
    kinds = {v["kind"] for v in report["details"]["violations"]}
    assert kinds == {"edge-compatibility"}


def test_tree_edge_element_must_be_identity():
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    spec = Specialisation(gog, fn, witness_maps(gog, fn, fn.generators["k2"]),
                          edge_elements={"e1": fn.generators["h3"]})
    report = verify_specialisation(spec)
    assert any(v["kind"] == "tree-edge" for v in report["details"]["violations"])


def test_non_tree_edge_element_conjugates():
    # a loop gluing a to b is in no spanning tree; into Lamp(2,2), where
    # t^-1 h0 t = h1, its element must conjugate nu(b) = h1 back to h0
    ab = models.ElementaryAbelian(2, ["a", "b"])
    gog = GraphOfGroups(
        Graph(["V"], {"loop": ("V", "V")}),
        {"V": VertexData(ab, P.elementary_abelian_presentation(2, ["a", "b"]))},
        {"loop": ea_edge(2, ["u"])},
        {"loop": ({"u": gen("a")}, {"u": gen("b")})})
    assert "loop" not in spanning_tree(gog)
    lamp = models.LamplighterLevel(2, 2)
    images = {"V": {"a": lamp.generators["h0"], "b": lamp.generators["h1"]}}
    t = lamp.generators["t"]

    def violations(element):
        spec = Specialisation(gog, lamp, images, edge_elements={"loop": element})
        return verify_specialisation(spec)["details"]["violations"]

    assert violations(t) == []
    for wrong in (~t, lamp.generators["h0"], lamp.identity):
        bad = violations(wrong)
        assert [(v["kind"], v["edge"], v["generator"]) for v in bad] == [
            ("edge-compatibility", "loop", "u")]
        assert bad[0]["d0_image"] == list(lamp.generators["h0"].coords)
        assert bad[0]["d1_image_conjugated"] == list(
            (wrong * lamp.generators["h1"] * ~wrong).coords)


def test_witness_injectivity_violation_names_vertex():
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    spec = Specialisation(gog, fn, witness_maps(gog, fn, fn.identity))
    witness = verify_properness_witness(spec)
    assert not witness.valid
    bad = [v for v in witness.report["details"]["violations"] if v["kind"] == "injectivity"]
    assert bad and bad[0]["vertex"] == "A1"
    assert bad[0]["image_order"] == 8 and bad[0]["vertex_order"] == 16


def test_a_map_satisfying_a_looser_presentation_fails():
    # <a | a^4> presents Z/4, of which EA(2; a) is only a quotient, so the
    # vertex certifies; z in Z/4 satisfies a^4, yet a -> z is no hom out of
    # EA(2; a), and the graph check says so
    a = models.ElementaryAbelian(2, ["a"])
    gog = GraphOfGroups(
        Graph(["V"], {}),
        {"V": VertexData(a, P.FinitePresentation(["a"], [gen("a", 4)]))},
        {}, {})
    target = models.CyclicModel(2, 2)
    spec = Specialisation(gog, target, {"V": {"a": target.generators["z"]}})
    report = verify_specialisation(spec)
    assert report["status"] == "fail"
    assert report["details"]["violations"] == [
        {"kind": "graph", "vertex": "V", "image": [2]}]


def _lone_vertex(model, target, images):
    gog = GraphOfGroups(
        Graph(["V"], {}),
        {"V": VertexData(model, P.elementary_abelian_presentation(
            model.p, list(model.generators)))}, {}, {})
    spec = Specialisation(gog, target, {"V": images})
    return verify_properness_witness(spec)


def test_failing_vertex_maps_keep_their_reports():
    # a failing map is reported by its source-first graph, as before the
    # target-first graph decided hom, image order and injectivity
    a = models.ElementaryAbelian(2, ["a"])
    z = models.CyclicModel(2, 2)
    witness = _lone_vertex(a, z, {"a": z.generators["z"]})
    assert witness.report["details"]["violations"] == [
        {"kind": "graph", "image": [2], "vertex": "V"},
        {"kind": "injectivity", "vertex": "V", "vertex_order": 2,
         "image_order": 4}]
    ea3 = models.ElementaryAbelian(3, ["x", "y"])
    witness = _lone_vertex(a, ea3, {"a": ea3.generators["x"]})
    assert witness.report["details"]["violations"] == [
        {"kind": "prime", "generator": "a", "image": [1, 0],
         "vertex": "V"},
        {"kind": "injectivity", "vertex": "V", "vertex_order": 2,
         "image_order": 3}]
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    maps = witness_maps(gog, fn, fn.generators["k2"])
    maps["A2"] = dict(maps["A2"])
    maps["A2"]["h2"], maps["A2"]["h3"] = maps["A2"]["h3"], maps["A2"]["h2"]
    witness = verify_properness_witness(Specialisation(gog, fn, maps))
    assert witness.report["details"]["violations"] == [
        {"kind": "graph", "image": [0, 1, 0, 0, 0, 0], "vertex": "A2"}]
    # a hom that is not injective: the image order is the images' span
    spec = Specialisation(gog, fn, witness_maps(gog, fn, fn.identity))
    witness = verify_properness_witness(spec)
    assert witness.report["details"]["violations"] == [
        {"kind": "injectivity", "vertex": "A1", "vertex_order": 16,
         "image_order": 8}]
    assert witness.vertex_image_orders == {"A1": 8, "A2": 64}


def test_a_presentation_only_vertex_cannot_be_specialised():
    # a bracketed vertex has no model to map out of, so no witness is
    # built over it
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    maps = witness_maps(gog, fn, fn.generators["k2"])
    bracketed = bracket_subgraph(gog, ["A2"])
    with pytest.raises(ValueError,
                       match=r"^vertex \[A2\] has no model to specialise$"):
        Specialisation(bracketed, fn, {"A1": maps["A1"], "[A2]": maps["A2"]})


def test_a_passing_witness_builds_one_graph_per_vertex_map():
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    spec = Specialisation(gog, fn, witness_maps(gog, fn, fn.generators["k2"]))
    assert verify_properness_witness(spec).valid
    for v in gog.graph.vertices:
        hom = spec.vertex_hom(v)
        assert hom is spec.vertex_hom(v)
        # the source-first graph serves apply_element and failure reports
        assert "_census" in hom.__dict__ and "_graph" not in hom.__dict__


def test_a_vertex_presentation_is_certified_once(monkeypatch):
    calls = []
    check = P.check_model_satisfies

    def counting(presentation, model):
        calls.append(model)
        return check(presentation, model)

    monkeypatch.setattr("pgog.gog.check_model_satisfies", counting)
    vd = ea_vertex(2, ["a", "b"])
    for _ in range(3):
        GraphOfGroups(Graph(["V"], {}), {"V": vd}, {}, {})
    assert calls == [vd.model]


def test_specialisation_requires_total_maps():
    gog = small_path_gog()
    fn = models.FnModel(2, 2)
    maps = witness_maps(gog, fn, fn.generators["k2"])
    del maps["A1"]["c"]
    with pytest.raises(ValueError, match="no image"):
        Specialisation(gog, fn, maps)


# -- bracketing -----------------------------------------------------------------

def test_bracket_single_vertex_preserves_rank():
    gog = small_path_gog()
    want = P.mod_p_rank(fundamental_presentation(gog), 2)
    bracketed = bracket_subgraph(gog, ["A2"])
    assert P.mod_p_rank(fundamental_presentation(bracketed), 2) == want
    assert "[A2]" in bracketed.graph.vertices


def test_bracket_whole_graph_single_vertex():
    gog = improper_heisenberg_chain(2, 3)
    whole = bracket_subgraph(gog, ["V1", "V2", "V3"], bracket_id="all")
    assert whole.graph.vertices == ("all",)
    assert whole.graph.edges == {}
    want = P.mod_p_rank(fundamental_presentation(gog), 2)
    assert P.mod_p_rank(fundamental_presentation(whole), 2) == want


def test_bracket_middle_of_chain_preserves_rank():
    gog = improper_heisenberg_chain(2, 3)
    want = P.mod_p_rank(fundamental_presentation(gog), 2)
    for part in (["V1", "V2"], ["V2", "V3"], ["V2"]):
        bracketed = bracket_subgraph(gog, part)
        assert P.mod_p_rank(fundamental_presentation(bracketed), 2) == want


def test_bracket_disconnected_subgraph_rejected():
    gog = improper_heisenberg_chain(2, 3)
    with pytest.raises(ValueError, match="not connected"):
        bracket_subgraph(gog, ["V1", "V3"])
    with pytest.raises(ValueError, match="not in the graph"):
        bracket_subgraph(gog, ["V1", "V9"])
