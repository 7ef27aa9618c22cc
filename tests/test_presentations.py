"""Presentations, coset enumeration, mod-p rank, homomorphism checks.

coset_enumerate is the independent order oracle: the enumerator counts
cosets from relators alone, with no access to the coordinate models, so
agreement with closure orders certifies presentation <-> model pairs.
"""

import random

import pytest

from pgog import models, tower
from pgog import presentations as P
from pgog.words import Word, commutator, gen


MODEL_OF = {
    "gn": (P.gn_presentation, models.GnModel),
    "fn": (P.fn_presentation, models.FnModel),
}


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("family", ["gn", "fn"])
def test_twist_presentations_satisfied(family, p, n):
    build_pres, build_model = MODEL_OF[family]
    report = P.check_model_satisfies(build_pres(p, n), build_model(p, n))
    assert report["status"] == "pass", report["details"]["violations"]


@pytest.mark.parametrize("p", [2, 3])
def test_heisenberg_presentation_satisfied(p):
    report = P.check_model_satisfies(
        P.heisenberg_presentation(p), models.HeisenbergModP(p))
    assert report["status"] == "pass", report["details"]["violations"]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_lamplighter_presentation_satisfied(p, n):
    report = P.check_model_satisfies(
        P.lamplighter_presentation(p, n), models.LamplighterLevel(p, n))
    assert report["status"] == "pass", report["details"]["violations"]


def test_twistless_mutant_fails_the_chain_relator():
    # same generator names, but plain vector addition: the relator
    # identifying k2 with a commutator cannot hold
    flat = models.ElementaryAbelian(2, ["k1", "k2", "h0", "h1", "h2", "h3"])
    report = P.check_model_satisfies(P.gn_presentation(2, 2), flat)
    assert report["status"] == "fail"
    kinds = {v["kind"] for v in report["details"]["violations"]}
    assert kinds == {"relator"}
    assert any("k2" in v["relator"] for v in report["details"]["violations"])


def test_all_trivial_images_fail_generation_only():
    # the lamps satisfy their relators, but miss the shift t
    m = models.LamplighterLevel(2, 1)
    pres = P.elementary_abelian_presentation(2, ["h0", "h1"])
    report = P.check_model_satisfies(pres, m)
    assert report["status"] == "fail"
    assert [v["kind"] for v in report["details"]["violations"]] == ["generation"]


def generation_cases():
    """Every generator subset of five small models (220 subsets)."""
    for m in [models.LamplighterLevel(2, 1), models.GnModel(2, 2),
              models.HeisenbergModP(3), models.ChainWitness(2, 2),
              models.LamplighterLevel(3, 1)]:
        names = list(m.generators)
        yield pytest.param(m, [[g for i, g in enumerate(names) if mask >> i & 1]
                               for mask in range(1 << len(names))], id=m.name)


@pytest.mark.parametrize("m,subsets", generation_cases())
def test_generation_check_agrees_with_subgroup_order(m, subsets):
    # the membership test must fail exactly when the named generators
    # enclose a proper subgroup
    for names in subsets:
        report = P.check_model_satisfies(P.FinitePresentation(names, []), m)
        sub_order = len(m.closure(names))
        if sub_order == m.order:
            assert report["details"]["violations"] == [], names
        else:
            assert report["details"]["violations"] == [
                {"kind": "generation", "subgroup_order": sub_order,
                 "model_order": m.order}], names


def test_presentation_naming_a_missing_generator_is_rejected():
    m = models.LamplighterLevel(2, 1)
    with pytest.raises(ValueError, match=r"\['s'\].*Lamp\(2,1\) lacks"):
        P.check_model_satisfies(P.FinitePresentation(["h0", "s"], []), m)


def test_presentation_validation():
    with pytest.raises(ValueError, match="undeclared"):
        P.FinitePresentation(["a"], [gen("b", 2)])
    with pytest.raises(ValueError, match="duplicate"):
        P.FinitePresentation(["a", "a"], [])


# -- coset enumeration ---------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_single_cyclic_relator(p):
    table = P.coset_enumerate(P.FinitePresentation(["a"], [gen("a", p)]))
    assert table.complete
    assert table.order == p


@pytest.mark.parametrize("p", [2, 3])
def test_heisenberg_coset_count_matches_closure(p):
    table = P.coset_enumerate(P.heisenberg_presentation(p))
    assert table.complete
    assert table.order == models.HeisenbergModP(p).order == p ** 3


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_gn_coset_count_matches_closure(p, n):
    table = P.coset_enumerate(P.gn_presentation(p, n))
    assert table.complete
    assert table.order == models.GnModel(p, n).order == p ** (2 + p ** n)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_lamplighter_coset_count_matches_closure(p, n):
    table = P.coset_enumerate(P.lamplighter_presentation(p, n))
    assert table.complete
    assert table.order == models.LamplighterLevel(p, n).order


def test_elementary_abelian_coset_count():
    table = P.coset_enumerate(P.elementary_abelian_presentation(2, "abc"))
    assert table.order == 8


def test_subgroup_enumeration_gives_index():
    table = P.coset_enumerate(P.gn_presentation(2, 1), [gen("h0")])
    assert table.complete and table.order == 8   # index of <h0> in a group of 16
    assert table.trace(gen("h0")) == 0           # row 0 fixed by the subgroup
    table = P.coset_enumerate(P.lamplighter_presentation(2, 2), [gen("t")])
    assert table.complete and table.order == 16  # 64 / 4
    assert table.trace(gen("t")) == 0
    assert table.trace(gen("t", 3)) == 0


def test_free_product_does_not_complete():
    pres = P.FinitePresentation(["a", "b"], [gen("a", 2), gen("b", 2)])
    table = P.coset_enumerate(pres, max_cosets=64)
    assert not table.complete
    assert table.order is None


def test_enumeration_is_deterministic():
    first = P.coset_enumerate(P.gn_presentation(2, 2))
    second = P.coset_enumerate(P.gn_presentation(2, 2))
    assert first.rows == second.rows


def test_completed_table_is_a_permutation_action():
    table = P.coset_enumerate(P.heisenberg_presentation(2))
    n = table.order
    for i, g in enumerate(table.presentation.generators):
        fwd = [table.rows[c][2 * i] for c in range(n)]
        assert sorted(fwd) == list(range(n))
        for c in range(n):
            assert table.rows[fwd[c]][2 * i + 1] == c
    for r in table.presentation.relators:
        for c in range(n):
            assert table.trace(r, c) == c


# -- mod-p rank -----------------------------------------------------------------

def test_mod_p_rank_basics():
    assert P.mod_p_rank(P.elementary_abelian_presentation(2, "abcd"), 2) == 4
    assert P.mod_p_rank(P.gn_presentation(2, 2), 2) == 5
    assert P.mod_p_rank(P.fn_presentation(2, 2), 2) == 5
    assert P.mod_p_rank(P.heisenberg_presentation(2), 2) == 2
    assert P.mod_p_rank(P.heisenberg_presentation(3), 3) == 2
    assert P.mod_p_rank(P.cyclic_presentation(2, 3), 2) == 1
    killed = P.FinitePresentation(["a", "b"], [gen("a"), gen("b")])
    assert P.mod_p_rank(killed, 2) == 0


def test_mod_p_rank_counts_only_mod_p_exponents():
    # a relator a^p contributes nothing; a relator a^(p+1) kills a
    assert P.mod_p_rank(P.FinitePresentation(["a"], [gen("a", 3)]), 3) == 1
    assert P.mod_p_rank(P.FinitePresentation(["a"], [gen("a", 4)]), 3) == 0


def test_mod_p_rank_invariant_under_tietze_moves():
    base = P.fn_presentation(2, 2)
    want = P.mod_p_rank(base, 2)
    rng = random.Random(24601)
    for _ in range(30):
        relators = list(base.relators)
        rng.shuffle(relators)
        moved = []
        for r in relators:
            if rng.random() < 0.3:
                r = ~r
            if rng.random() < 0.3:
                c = gen(rng.choice(base.generators))
                r = ~c * r * c
            moved.append(r)
        assert P.mod_p_rank(P.FinitePresentation(base.generators, moved), 2) == want


# -- homomorphisms ---------------------------------------------------------------

def name_hom(source_model, target_model, name=""):
    mapping = {g: target_model.generators[g] for g in source_model.generators}
    return P.GroupHom(source_model, target_model, mapping, name)


def test_hom_verify_with_presentation_source():
    m = models.GnModel(2, 2)
    pres = P.gn_presentation(2, 2)
    hom = P.GroupHom(pres, m, {g: m.generators[g] for g in pres.generators})
    assert hom.verify()["status"] == "pass"
    twisted = dict(hom.mapping)
    twisted["k1"], twisted["h0"] = twisted["h0"], twisted["k1"]
    bad = P.GroupHom(pres, m, twisted)
    report = bad.verify()
    assert report["status"] == "fail"
    assert report["details"]["violations"]


def test_hom_verify_by_pair_enumeration():
    gn, fn = models.GnModel(2, 2), models.FnModel(2, 2)
    assert name_hom(gn, fn).verify()["status"] == "pass"
    swapped = {g: fn.generators[g] for g in gn.generators}
    swapped["k1"], swapped["h0"] = swapped["h0"], swapped["k1"]
    report = P.GroupHom(gn, fn, swapped).verify()
    assert report["status"] == "fail"


def test_hom_verify_pair_guard():
    # order 2^14, past any pair enumeration: the graph check decides it
    big = models.EnWitnessModel(2, 2)
    hom = name_hom(big, models.EnWitnessModel(2, 2))
    assert hom.verify() == {"name": "hom", "status": "pass",
                            "details": {"violations": []}}


def test_a_map_into_another_prime_is_a_hom_only_when_trivial():
    # the graph would mix primes, so the map is judged by its images
    ea = models.ElementaryAbelian(2, ["a", "b"])
    z = models.CyclicModel(3)
    trivial = P.GroupHom(ea, z, {"a": z.identity, "b": z.identity})
    assert trivial.verify()["status"] == "pass"
    report = P.GroupHom(ea, z, {"a": z.identity, "b": z.generators["z"]}).verify()
    assert report["details"]["violations"] == [
        {"kind": "prime", "generator": "b", "image": [1]}]


def _pair_check(hom):
    """Exhaustive hom check: images by shortest closure words, compared
    on every pair of source elements."""
    table = hom.source.closure()
    image = {e: hom.apply(table.word_for(e)) for e in table}
    return all(image[a * b] == image[a] * image[b]
               for a in table for b in table)


def _small_homs():
    gn, fn = models.GnModel(2, 2), models.FnModel(2, 2)
    swapped = {g: fn.generators[g] for g in gn.generators}
    swapped["k1"], swapped["h0"] = swapped["h0"], swapped["k1"]
    yield "fail", P.GroupHom(gn, fn, swapped)
    yield "pass", tower.build_level(2, 2).vertex_fold     # not injective
    # z satisfies a^4, a relator of a presentation EA(2; a) only satisfies,
    # yet has order 4: no hom out of EA(2; a)
    z = models.CyclicModel(2, 2)
    yield "fail", P.GroupHom(models.ElementaryAbelian(2, ["a"]), z,
                             {"a": z.generators["z"]})
    for m in (gn, fn, models.GnModel(3, 1), models.LamplighterLevel(2, 2),
              models.HeisenbergModP(3), models.CyclicModel(2, 3),
              models.ChainWitness(2, 2)):
        yield "pass", name_hom(m, m)


def test_graph_hom_check_agrees_with_pair_enumeration():
    for status, hom in _small_homs():
        assert hom.source.order <= 2 ** 8
        assert _pair_check(hom) == (status == "pass")
        report = hom.verify()
        assert report["status"] == status
        if status == "fail":
            # the graph holds some (1, t), t != 1: t is the violation
            (violation,) = report["details"]["violations"]
            assert violation["kind"] == "graph" and any(violation["image"])
            with pytest.raises(ValueError, match="not a homomorphism"):
                hom.apply_element(hom.source.identity)


_TOWER_PARAMETERS = ((2, 1), (2, 2), (2, 3), (3, 1))


def _tower_homs():
    for p, levels in _TOWER_PARAMETERS:
        gog, spec = tower.joined_witness_specialisation(p, levels)
        for homs in gog.edge_homs.values():
            yield from homs
        for v in gog.graph.vertices:
            yield spec.vertex_hom(v)
    for n in (2, 3):
        level = tower.build_level(2, n)
        yield from (level.lamp_fold, level.vertex_fold)


def test_element_images_equal_the_word_images():
    mapped = 0
    for hom in _tower_homs():
        if hom.source.order >= 2 ** 12:
            continue
        table = hom.source.closure()
        for e in table:
            assert hom.apply_element(e) == hom.apply(table.word_for(e)), hom
        mapped += len(table)
    assert mapped > 4000


def _shipped_presentations():
    """The presentation the package ships with each tower vertex group
    and edge group K_i, keyed by model."""
    shipped = {}
    for p, levels in _TOWER_PARAMETERS:
        for vd in tower.build_graphs(p, levels, 0).joined.vertices.values():
            shipped[vd.model] = vd.presentation
        for i in range(1, levels + 1):
            vd = tower._edge_data(p, i)
            shipped[vd.model] = vd.presentation
    return shipped


def _swapped(hom):
    """The same map with its first and last generator images swapped."""
    mapping = dict(hom.mapping)
    names = list(hom.source.generators)
    mapping[names[0]], mapping[names[-1]] = mapping[names[-1]], mapping[names[0]]
    return P.GroupHom(hom.source, hom.target, mapping, hom.name + " swapped")


def test_graph_check_agrees_with_von_dyck_on_tower_maps():
    # the relator check is the reference wherever a shipped presentation
    # of the source exists; lamp-space sources have none
    shipped = _shipped_presentations()
    statuses = []
    for hom in _tower_homs():
        presentation = shipped.get(hom.source)
        if presentation is None:
            continue
        for h in (hom, _swapped(hom)):
            by_relators = P.GroupHom(presentation, h.target, h.mapping).verify()
            assert h.verify()["status"] == by_relators["status"], h
            statuses.append(by_relators["status"])
    assert statuses.count("fail") > 0 and statuses.count("pass") > 0


def test_hom_missing_generator_image_rejected():
    m = models.GnModel(2, 1)
    with pytest.raises(ValueError, match="no image"):
        P.GroupHom(m, m, {"k0": m.generators["k0"]})


def test_hom_injective_on():
    gn, fn = models.GnModel(2, 2), models.FnModel(2, 2)
    assert P.hom_injective_on(name_hom(gn, gn))
    assert P.hom_injective_on(name_hom(gn, fn))
    z = models.ElementaryAbelian(2, ["z"])
    crush = P.GroupHom(gn, z, {g: z.identity for g in gn.generators})
    assert not P.hom_injective_on(crush)


def test_hom_injective_on_encloses_nothing(monkeypatch):
    # both orders come from induced polycyclic sequences
    gn, fn = models.GnModel(2, 2), models.FnModel(2, 2)
    enclosed = []
    closure = models.kernel.closure

    def counting(blocks, identity, gens):
        enclosed.append(blocks)
        return closure(blocks, identity, gens)

    monkeypatch.setattr(models.kernel, "closure", counting)
    assert P.hom_injective_on(name_hom(gn, fn))
    assert P.hom_injective_on(name_hom(gn, fn, "again"))
    assert enclosed == []


def test_evaluate_factors_through_name_map():
    gn, fn = models.GnModel(2, 2), models.FnModel(2, 2)
    hom = name_hom(gn, fn)
    rng = random.Random(11)
    names = list(gn.generators)
    for _ in range(50):
        w = Word(tuple((rng.choice(names), rng.choice([-1, 1, 2]))
                       for _ in range(6)))
        assert hom.apply(w) == fn.evaluate(w)
    assert hom.apply(commutator(gen("k1"), gen("h2"))) == fn.generators["k2"]
