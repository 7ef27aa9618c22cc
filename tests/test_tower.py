"""Tower levels: folds, retraction squares, splittings, witnesses, transitions."""

import sys
from pathlib import Path

import pytest

from pgog import models, reports, tower
from pgog import presentations as P
from pgog.analysis import check_edge_bound
from pgog.dsl import parse_dsl
from pgog.gog import (bracket_subgraph, check_reduced, fp_naming,
                      fundamental_presentation)
from pgog.tower import (_tail_gog, build_graphs, build_level, build_witnesses,
                        check_budget, check_retraction_square,
                        check_transition_maps, check_two_generation,
                        composed_transition_images, joined_witness_model,
                        lamp_names, mu, path_witness_model,
                        transition_images)
from pgog.words import IDENTITY, gen
from test_gog import whole_edge_gog

DATA = Path(__file__).parent.parent / "src" / "pgog" / "data"
TEST_DATA = Path(__file__).parent / "data"


# -- index folding -----------------------------------------------------------


def test_mu_reduces_indices_into_the_level_window():
    assert mu(2, 1, 3) == 1
    assert mu(2, 2, 5) == 1
    assert mu(2, 2, 7) == 3
    assert mu(2, 3, 8) == 0
    assert mu(3, 1, 8) == 2


def test_mu_rejects_indices_outside_the_next_window():
    with pytest.raises(ValueError, match="outside"):
        mu(2, 1, 4)
    with pytest.raises(ValueError, match="outside"):
        mu(2, 1, -1)


# -- levels ------------------------------------------------------------------


def test_bottom_level_orders():
    level = build_level(2, 1)
    assert level.lamps.order == 4
    assert level.edge_group.order == 8
    assert level.vertex_group.order == 16
    assert level.lamplighter.order == 8
    # the explicit bottom vertex group agrees with the generic depth model
    assert models.GnModel(2, 1).order == level.vertex_group.order


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_level_order_formulas(p, n):
    # polycyclic orders, checked exhaustively against BFS closures
    level = build_level(p, n)
    for model, expected in ((level.lamps, p ** p ** n),
                            (level.edge_group, p ** (p ** n + 1)),
                            (level.vertex_group, p ** (p ** n + 2)),
                            (level.lamplighter, p ** (p ** n + n))):
        assert model.order == len(model.closure()) == expected


def test_lamp_fold_halves_the_window():
    level = build_level(2, 2)
    prev = build_level(2, 1)
    assert level.lamp_fold.image_of("h2") == prev.lamps.generators["h0"]
    assert level.lamp_fold.image_of("h3") == prev.lamps.generators["h1"]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_fold_after_inclusion_fixes_the_smaller_lamp_space(p, n):
    level = build_level(p, n)
    prev = build_level(p, n - 1)
    for name, element in prev.lamps.generators.items():
        included = level.lamps.generators[name]
        assert level.lamp_fold.apply_element(included) == element


def test_vertex_fold_kills_only_the_top_carrier():
    level = build_level(2, 2)
    prev = build_level(2, 1)
    assert level.vertex_fold.image_of("k2") == prev.edge_group.identity
    assert level.vertex_fold.image_of("k1") == prev.edge_group.generators["k1"]


# -- retraction squares ------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_retraction_square_passes(p, n):
    report = check_retraction_square(build_level(p, n))
    assert report["status"] == "pass"
    assert report["details"]["violations"] == []


def test_retraction_square_needs_a_previous_level():
    with pytest.raises(ValueError, match="previous level"):
        check_retraction_square(build_level(2, 1))


def test_retraction_square_rejects_a_shifted_fold():
    # folding the lamps one slot off breaks both roads of the square and
    # stops the composed retraction from fixing the previous edge group
    level = build_level(2, 2)
    prev = build_level(2, 1)
    mapping = {"k2": prev.edge_group.identity,
               "k1": prev.edge_group.generators["k1"]}
    for j in range(4):
        mapping[f"h{j}"] = prev.edge_group.generators[f"h{(j + 1) % 2}"]
    wrong = P.GroupHom(level.vertex_group, prev.edge_group, mapping)
    report = check_retraction_square(level._replace(vertex_fold=wrong))
    assert report["status"] == "fail"
    kinds = {v["kind"] for v in report["details"]["violations"]}
    assert kinds == {"square", "retraction"}
    assert {"kind": "retraction", "generator": "h0"} in report["details"]["violations"]


# -- splittings --------------------------------------------------------------


def test_splitting_shapes():
    graphs = build_graphs(2, 1, 1)
    assert tuple(graphs.path.graph.vertices) == ("G1",)
    assert tuple(graphs.tail.graph.vertices) == ("G2",)
    assert tuple(graphs.joined.graph.vertices) == ("G1", "G2", "W")
    assert set(graphs.joined.graph.edges) == {"K1", "H2"}
    assert graphs.joined.graph.edges["H2"] == ("G2", "W")


def test_zero_tail_is_the_edge_group_alone():
    graphs = build_graphs(2, 2, 0)
    assert tuple(graphs.tail.graph.vertices) == ("K2",)
    assert graphs.tail.graph.edges == {}
    assert graphs.tail.vertices["K2"].model.order == 32


def test_path_edge_groups_and_reducedness():
    graphs = build_graphs(2, 2, 0)
    assert set(graphs.path.graph.edges) == {"K1"}
    assert graphs.path.edges["K1"].order == 8
    assert check_reduced(graphs.path)
    assert check_reduced(graphs.joined)


def test_splittings_share_one_model_per_group():
    # one model per group means one cached closure per group
    graphs = build_graphs(2, 2, 1)
    g3 = graphs.tail.vertices["G3"].model
    assert g3 is graphs.joined.vertices["G3"].model
    assert g3 is build_level(2, 3).vertex_group
    assert graphs.path.vertices["G1"].model is graphs.joined.vertices["G1"].model
    k1 = graphs.path.edges["K1"]
    assert k1 is graphs.joined.edges["K1"]
    assert k1 is build_level(2, 1).edge_group


def test_splitting_edge_maps_run_between_the_level_models():
    # the inclusions K_i -> G_i, K_i -> G_{i+1}, H_3 -> G_3 and H_3 -> W
    # are edge maps, each certified by the splitting that holds it
    graphs = build_graphs(2, 3, 0)
    levels = {i: build_level(2, i) for i in (1, 2, 3)}
    for gog in (graphs.path, graphs.joined):
        for i in (1, 2):
            first, second = gog.edge_homs[f"K{i}"]
            assert first.source is levels[i].edge_group
            assert first.target is levels[i].vertex_group
            assert second.target is levels[i + 1].vertex_group
    lamp, lamplighter = graphs.joined.edge_homs["H3"]
    assert lamp.source is levels[3].lamps
    assert lamplighter.target is graphs.joined.vertices["W"].model
    for gog in (graphs.path, graphs.joined):
        assert all(P.hom_injective_on(hom)
                   for homs in gog.edge_homs.values() for hom in homs)


def test_verify_all_certifies_each_vertex_group_once(monkeypatch, capsys):
    from pgog import amalgam, cli, gog, tower
    for cached in (tower.vertex_data, tower._edge_data, tower.build_level,
                   tower.build_graphs, amalgam._level_data):
        cached.cache_clear()    # so that every vertex is built here
    certified = []
    check = gog.check_model_satisfies

    def counting(presentation, model):
        certified.append(presentation.name)
        return check(presentation, model)

    monkeypatch.setattr(gog, "check_model_satisfies", counting)
    assert cli.main(["tower", "verify-all", "--p", "2", "--max-level", "3",
                     "--json"]) == 0
    capsys.readouterr()
    # G1..G3, K1..K3 and the lamplighter levels W1..W3
    assert sorted(certified) == sorted(
        ["G(2,1)", "Gn(2,2)", "Gn(2,3)", "K(2,1)", "K(2,2)", "K(2,3)",
         "Lamp(2,1)", "Lamp(2,2)", "Lamp(2,3)"])


def _reduced_by_image_orders(gog):
    """check_reduced computed from the words: no edge map's images, off
    loops, generate the whole endpoint group."""
    for eid, (v0, v1) in gog.graph.edges.items():
        if v0 == v1:
            continue
        for k, v in enumerate((v0, v1)):
            model = gog.vertices[v].model
            images = [model.evaluate(w) for w in gog.edge_maps[eid][k].values()]
            if model.subgroup(images).order >= model.order:
                return False
    return True


def _document_graphs(path):
    return list(parse_dsl(path.read_text()).graphs.values())


_REDUCEDNESS_CASES = {
    "tail-2-1-2": (lambda: [_tail_gog(2, 1, 2)], True),
    "tail-3-1-2": (lambda: [_tail_gog(3, 1, 2)], True),
    "path-2-3": (lambda: [build_graphs(2, 3, 0).path], True),
    "joined-2-3": (lambda: [build_graphs(2, 3, 0).joined], True),
    "free_line": (lambda: _document_graphs(DATA / "free_line.gog"), True),
    "heisenberg_chain": (
        lambda: _document_graphs(DATA / "heisenberg_chain.gog"), True),
    "unreduced_line": (
        lambda: _document_graphs(TEST_DATA / "unreduced_line.gog"), False),
    "whole-edge": (lambda: [whole_edge_gog()], False),
}


@pytest.mark.parametrize("case", list(_REDUCEDNESS_CASES))
def test_reducedness_agrees_with_the_image_orders(case):
    # a certified edge map is injective, so comparing the edge and vertex
    # orders gives the verdict the images' subgroup order gives
    build, reduced = _REDUCEDNESS_CASES[case]
    graphs = build()
    assert graphs
    for gog in graphs:
        assert check_reduced(gog) == _reduced_by_image_orders(gog) == reduced


def _same_homs(gog, other, eid):
    return all(a is b for a, b in zip(gog.edge_homs[eid],
                                      other.edge_homs[eid], strict=True))


@pytest.mark.parametrize("n, m, steps", [(0, 1, 2), (1, 0, 2), (1, 1, 1)])
def test_tails_certify_the_path_splittings_edge_homs(n, m, steps):
    path = build_graphs(2, 3, 0).path
    src, dst, _, _ = tower._tails(2, n, m, steps)
    assert src.graph.edges
    for tail in (src, dst):
        assert set(tail.edge_homs) == set(tail.graph.edges)
        for eid in tail.graph.edges:
            assert all(P.hom_injective_on(hom) for hom in tail.edge_homs[eid])
            assert _same_homs(tail, path, eid)


def test_a_bracketed_path_certifies_both_its_graphs(monkeypatch):
    from pgog import gog as gog_module
    path = build_graphs(2, 3, 0).path
    built = []

    class Recording(gog_module.GraphOfGroups):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(gog_module, "GraphOfGroups", Recording)
    bracketed = bracket_subgraph(path, ["G2", "G3"])
    inner, outer = built
    assert outer is bracketed
    assert set(inner.edge_homs) == {"K2"} and _same_homs(inner, path, "K2")
    first, last = outer.edge_homs["K1"]
    assert first is path.edge_homs["K1"][0] and last is None


def test_the_retraction_square_reads_the_splittings_inclusions(monkeypatch):
    # H_3 -> G_3 and K_2 -> G_3 are edge maps of the joined splitting:
    # the square verifies the very homs it certified
    joined = build_graphs(2, 3, 0).joined
    verified = []
    verify = P.GroupHom.verify

    def recording(hom):
        verified.append(hom)
        return verify(hom)

    monkeypatch.setattr(P.GroupHom, "verify", recording)
    assert check_retraction_square(build_level(2, 3))["status"] == "pass"
    assert any(hom is joined.edge_homs["H3"][0] for hom in verified)
    assert any(hom is joined.edge_homs["K2"][1] for hom in verified)


def _pcgs_built(monkeypatch, argv):
    """The (layout, generators) pair of every induced pcgs one command
    builds with the tower caches cleared, and whether _certify or
    check_retraction_square built it."""
    from pgog import _kernels_py, amalgam, cli
    for cached in (tower.vertex_data, tower._edge_data, tower.build_level,
                   tower.build_graphs, amalgam._level_data):
        cached.cache_clear()    # so that every map is built here
    built = []
    eliminate = _kernels_py.induced_pcgs

    def recording(layout, gens):
        callers, frame = set(), sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        built.append(((layout, tuple(map(tuple, gens))), bool(
            callers & {"_certify", "check_retraction_square"})))
        return eliminate(layout, gens)

    monkeypatch.setattr(_kernels_py, "induced_pcgs", recording)
    assert cli.main([*argv, "--json"]) == 0
    monkeypatch.undo()
    return built


def test_each_edge_map_builds_its_graph_pcgs_once(monkeypatch, capsys):
    # 59 induced pcgs before edge maps were kept by their vertices, 14 of
    # them repeating an earlier pair; the two left repeat a census
    built = _pcgs_built(
        monkeypatch, ["tower", "verify-all", "--p", "2", "--max-level", "3"])
    capsys.readouterr()
    assert len(built) <= 47
    certifying = [key for key, certify in built if certify]
    assert certifying and len(set(certifying)) == len(certifying)


def test_the_examples_build_fewer_pcgs(monkeypatch, capsys):
    # 110 before; every example builds its own models, so equal maps out
    # of distinct models are certified again, by design
    assert len(_pcgs_built(monkeypatch, ["run-all"])) <= 98
    capsys.readouterr()


def test_zero_tail_shares_the_level_edge_group():
    assert _tail_gog(2, 1, 0).vertices["K1"].model is \
        build_level(2, 1).edge_group


def test_bracketing_the_path_interior_preserves_rank():
    path = build_graphs(2, 3, 0).path
    rank = P.mod_p_rank(fundamental_presentation(path), 2)
    bracketed = bracket_subgraph(path, ["G2", "G3"])
    assert P.mod_p_rank(fundamental_presentation(bracketed), 2) == rank


# -- witnesses ---------------------------------------------------------------


def test_bottom_path_witness_borrows_the_depth_two_model():
    # the depth-one stacked-twist model is smaller than the bottom vertex
    # group, so it cannot receive it injectively
    assert models.FnModel(2, 1).order == 8
    assert build_level(2, 1).vertex_group.order == 16
    assert path_witness_model(2, 1).order == 64


@pytest.mark.parametrize("p,levels", [(2, 1), (2, 2), (2, 3)])
def test_witnesses_certify_with_full_size_vertex_images(p, levels):
    path_witness, joined_witness = build_witnesses(p, levels)
    assert path_witness.valid and joined_witness.valid
    for i in range(1, levels + 1):
        order = build_level(p, i).vertex_group.order
        assert path_witness.vertex_image_orders[f"G{i}"] == order
        assert joined_witness.vertex_image_orders[f"G{i}"] == order
    lamp_order = build_level(p, levels).lamplighter.order
    assert joined_witness.vertex_image_orders["W"] == lamp_order


@pytest.mark.parametrize("levels", [1, 2])
def test_witnessed_splittings_pass_the_edge_bound(levels):
    path_witness, joined_witness = build_witnesses(2, levels)
    graphs = build_graphs(2, levels, 0)
    assert path_witness.specialisation.gog is graphs.path
    assert joined_witness.specialisation.gog is graphs.joined
    assert check_edge_bound(path_witness)["status"] == reports.PASS
    assert check_edge_bound(joined_witness)["status"] == reports.PASS


# -- transitions -------------------------------------------------------------


def test_transition_images_fold_the_last_vertex():
    images = transition_images(2, 0, 1)
    assert repr(images["h2"]) == "h0"
    assert repr(images["h3"]) == "h1"
    assert not images["k2"]
    assert repr(images["G2.k1"]) == "k1"
    assert repr(images["c"]) == "c"


@pytest.mark.parametrize("p,n,m", [
    (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 1, 1), (2, 1, 2),
    (2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 0), (2, 3, 1), (2, 3, 2),
    (3, 1, 0), (3, 1, 1),
])
def test_transition_maps_certify(p, n, m):
    report = check_transition_maps(p, n, m)
    assert report["status"] == "pass"
    assert report["details"]["violations"] == []


def _refold(monkeypatch, p, top, changes):
    """Have build_level give level `top` a vertex fold whose images of the
    generators in `changes` are the previous edge generators named there."""
    real = tower.build_level
    level, prev = real(p, top), real(p, top - 1)
    mapping = {g: level.vertex_fold.image_of(g)
               for g in level.vertex_group.generators}
    mapping.update((g, prev.edge_group.generators[h])
                   for g, h in changes.items())
    fold = P.GroupHom(level.vertex_group, prev.edge_group, mapping)
    monkeypatch.setattr(tower, "build_level", lambda q, i: (
        level._replace(vertex_fold=fold) if (q, i) == (p, top)
        else real(q, i)))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_a_fold_with_its_lamps_one_slot_off_is_no_retraction(monkeypatch,
                                                             p, n):
    # still a hom, but it moves every lamp of the smaller tail
    _refold(monkeypatch, p, n + 1,
            {f"h{j}": f"h{(j + 1) % p ** n}" for j in range(p ** (n + 1))})
    report = check_transition_maps(p, n, 0)
    assert report["status"] == "fail"
    assert {v["kind"] for v in report["details"]["violations"]} == {"not-a-retraction"}
    assert [v["generator"] for v in report["details"]["violations"]] == \
        lamp_names(p, n)


@pytest.mark.parametrize("p,n,m", [(2, 1, 0), (2, 0, 1), (3, 1, 0)])
def test_a_fold_sending_the_top_carrier_down_a_level_is_no_hom(monkeypatch,
                                                               p, n, m):
    top = n + m + 1
    _refold(monkeypatch, p, top, {f"k{top}": f"k{top - 1}"})
    report = check_transition_maps(p, n, m)
    assert report["status"] == "fail"
    assert {v["kind"] for v in report["details"]["violations"]} == {"relator-image"}


def test_transition_below_the_tower_is_undefined():
    with pytest.raises(ValueError, match="level-0 edge group"):
        check_transition_maps(2, 0, 0)


def _double_fold_oracle(p, n, m):
    # direct images of the two-step fold, written against the namings only
    src = _tail_gog(p, n, m + 2)
    dst = _tail_gog(p, n, m)
    src_names = fp_naming(src)
    dst_names = fp_naming(dst)
    dv = f"G{n + m}" if m else f"K{n}"
    expected = {}
    for v in src.graph.vertices:
        i = int(v[1:])
        for g in src.vertices[v].model.generators:
            qual = src_names[v][g]
            if i <= n + m:
                expected[qual] = gen(dst_names[v][g])
            elif g.startswith("k") and int(g[1:]) > n + m:
                expected[qual] = IDENTITY
            elif g.startswith("k"):
                expected[qual] = gen(dst_names[dv][g])
            else:
                folded = f"h{int(g[1:]) % p ** (n + m)}"
                expected[qual] = gen(dst_names[dv][folded])
    return expected


@pytest.mark.parametrize("p,n,m", [(2, 0, 1), (2, 1, 0), (2, 1, 1), (3, 1, 0)])
def test_composed_transitions_match_the_direct_double_fold(p, n, m):
    composed = composed_transition_images(p, n, m)
    expected = _double_fold_oracle(p, n, m)
    assert set(composed) == set(expected)
    for name in expected:
        assert tuple(composed[name].letters()) == \
            tuple(expected[name].letters())


# -- two-generation ----------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_one_lamp_and_the_shift_generate_the_lamplighter(p, n):
    report = check_two_generation(p, n)
    assert report["status"] == "pass"
    details = report["details"]
    assert details["subgroup_order"] == p ** (p ** n + n)
    assert details["model_order"] == details["subgroup_order"]


def test_the_shift_alone_generates_only_its_cycle():
    lamp = build_level(2, 2).lamplighter
    assert len(lamp.closure([lamp.generators["t"]])) == 4


@pytest.mark.parametrize("p, top, refused", [
    (2, 7, None), (2, 8, "SCW(2,8)"), (43, 1, None), (47, 1, "Fn(47,2)"),
    (23, 2, None), (29, 2, "En(29,2)"), (4099, 1, "EA(4099;4099 names)")])
def test_the_budget_check_refuses_what_the_constructors_refuse(p, top,
                                                               refused):
    # over the budget, the check and the first refusing constructor say
    # the same; under it, every witness model of every level builds
    def build(n):
        models.ElementaryAbelian(p, lamp_names(p, n))
        models.LamplighterLevel(p, n)
        path_witness_model(p, n)
        joined_witness_model(p, n)

    if refused is None:
        check_budget(p, top, witnesses=True)
        for n in range(1, top + 1):
            build(n)
        return
    with pytest.raises(ValueError, match="coordinate budget") as checked:
        check_budget(p, top, witnesses=True)
    assert str(checked.value).startswith(refused)
    with pytest.raises(ValueError) as built:
        for n in range(1, top + 1):
            build(n)
    assert str(built.value) == str(checked.value)
