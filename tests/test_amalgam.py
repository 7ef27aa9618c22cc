"""Transversals, path normal forms, and the separation search."""

import collections
import gc
import hashlib
import random
import weakref
from pathlib import Path

import pytest

import reference_reduction
from pgog import _kernels_py as kernel
from pgog import amalgam, models
from pgog.amalgam import (Verdict, build_transversals, check_search,
                          lamp_letter, nf_multiply, normal_form, path_letter,
                          search_levels, separate)
from pgog.gog import (Graph, GraphOfGroups, VertexData, bracket_subgraph,
                      verify_properness_witness)
from pgog.registry import free_product_line
from pgog import tower
from pgog.tower import (LEVEL_CACHE, _tail_gog, build_graphs,
                        build_witnesses, joined_witness_specialisation,
                        path_witness_specialisation)
from pgog.words import Word, from_letters, gen

BENCH = Path(__file__).resolve().parent.parent / "bench"


def p2_path():
    return build_graphs(2, 2, 0).path


def p2_joined():
    return build_graphs(2, 2, 0).joined


# -- transversals ------------------------------------------------------------


def test_transversal_counts_on_the_two_vertex_path():
    tables = build_transversals(p2_path())
    assert tables[("K1", 0)].coset_count == 2      # 16 / 8
    assert tables[("K1", 1)].coset_count == 8      # 64 / 8
    for table in tables.values():
        identity = table.hom.target.identity.coords
        assert table.split(identity)[0] == identity


@pytest.mark.parametrize("gog", [
    pytest.param(p2_path, id="path-2-2"),
    *(pytest.param(lambda p=p, n=n: build_graphs(p, n, 0).joined,
                   id=f"joined-{p}-{n}")
      for p, n in [(2, 1), (2, 2), (3, 1), (2, 3)]),
    pytest.param(lambda: free_product_line(2), id="free-line")])
def test_split_matches_the_enumerated_cosets(gog):
    # every element g of every vertex group: g s^-1 = phi(kappa) with
    # c = psi(kappa), s constant on g's coset, one s per coset
    gog = gog()
    for (eid, end), table in build_transversals(gog).items():
        phi, psi = gog.edge_homs[eid][end], gog.edge_homs[eid][1 - end]
        edge = {phi.apply_element(k): k for k in phi.source.closure()}
        reps = {}
        for g in phi.target.closure():
            s, c = table.split(g.coords)
            s = phi.target.element(s)
            kappa = edge[g * ~s]
            assert c == psi.apply_element(kappa).coords
            reps.setdefault(s, set()).add(g)
        assert len(reps) == table.coset_count
        for s, coset in reps.items():
            assert table.split(s.coords)[0] == s.coords
            assert coset == {phi.apply_element(k) * s
                             for k in phi.source.closure()}


def test_split_reads_only_the_live_depths_on_the_benchmarked_splitting():
    # the level-3 joined splitting at p = 2 that the nf-products benchmark
    # reduces over: split sifts only the depths that hold an entry, and
    # leaves what the sift through all of a's depths leaves
    gog, _ = joined_witness_specialisation(2, 3)
    rng = random.Random(3)
    dead = 0
    for (eid, end), table in build_transversals(gog).items():
        phi, psi = gog.edge_homs[eid][end], gog.edge_homs[eid][1 - end]
        a, b = phi.target, psi.target
        layout = models.product_blocks(a, b)
        full = kernel.induced_pcgs(layout, [
            phi.image_of(g).coords + psi.image_of(g).coords
            for g in phi.source.generators])
        terms = layout.series[:len(a.blocks.series)]
        dead += full[:len(terms)].count(None)
        for _ in range(60):
            x = tuple(rng.randrange(m) for m in a.blocks.moduli)
            _, _, rest = kernel.sift(layout, a.p, terms, full,
                                     x + b.identity.coords)
            s, y = table.split(x)
            assert s == rest[:a.width]
            assert kernel.mul(b.blocks, y, rest[a.width:]) == \
                b.identity.coords
            assert table.split(s) == (s, b.identity.coords)
    assert dead > 0


class _ShortlexTransversal:
    """The enumerating transversal: each coset is represented by its
    element with the shortlex-least closure word.  Splits coordinate
    tuples, as Transversal does."""

    def __init__(self, gog, eid, end):
        phi, psi = gog.edge_homs[eid][end], gog.edge_homs[eid][1 - end]
        closure = phi.target.closure()

        def word_key(e):
            letters = tuple(closure.word_for(e).letters())
            return len(letters), letters

        edge = [(phi.apply_element(k), psi.apply_element(k).coords)
                for k in phi.source.closure()]
        self._split = {}
        for s in sorted(closure, key=word_key):
            if s.coords not in self._split:
                for image, c in edge:
                    self._split[(image * s).coords] = (s.coords, c)

    def split(self, y):
        return self._split[y]


def _shortlex_normal_form(gog, tables, letters):
    stack = []
    head = amalgam._reduce(
        tables, tables.models[tables.order[0]].identity.coords, stack,
        amalgam._numbered_letters(tables, letters))
    return amalgam._result(gog, tables, head, stack)


def test_sifted_and_shortlex_representatives_give_the_same_forms():
    gog = p2_joined()
    tables = amalgam._PathTables(gog)
    for eid in gog.graph.edges:
        for end in (0, 1):
            tables.steps[eid, gog.graph.ends(eid)[end]].transversal = \
                _ShortlexTransversal(gog, eid, end)
    letters = [(v, gen(name, sign)) for v in gog.graph.vertices
               for name in gog.vertices[v].model.generators
               for sign in (1, -1)]
    words = [[]]
    for _ in range(3):
        words = [w + [x] for w in words for x in letters]
        for w in words:
            nf = normal_form(gog, w)
            old = _shortlex_normal_form(gog, tables, w)
            assert nf.is_trivial == old.is_trivial
            assert [v for v, _, _ in nf.syllables] == \
                [v for v, _, _ in old.syllables]


def test_reductions_share_interned_coordinate_tuples():
    gog = p2_joined()
    letters = [("G1", gen("c")), ("G2", gen("k2")), ("W", gen("t")),
               ("G1", gen("k1"))]
    first, second = normal_form(gog, letters), normal_form(gog, letters)
    assert first == second and len(first.syllables) == 3
    assert first.head.coords is second.head.coords
    for (_, a, _), (_, b, _) in zip(first.syllables, second.syllables):
        assert a is not b and a.coords is b.coords


def test_transversal_cosets_cover_the_vertex_group():
    gog = p2_path()
    edge_order = gog.edges["K1"].order
    for (eid, end), table in build_transversals(gog).items():
        vertex_order = gog.vertices[table.vertex].model.order
        assert table.coset_count * edge_order == vertex_order


def test_trivial_edge_group_gives_the_whole_vertex_group():
    gog = free_product_line(2)
    for table in build_transversals(gog).values():
        vertex_order = gog.vertices[table.vertex].model.order
        assert table.coset_count == vertex_order


def test_transversals_use_the_certified_edge_maps():
    gog = p2_path()
    for (eid, end), table in build_transversals(gog).items():
        assert table.hom is gog.edge_homs[eid][end]
    # a bracketed vertex carries a presentation alone, so the edge into
    # it has no certified model map at that end
    bracketed = bracket_subgraph(build_graphs(2, 3, 0).path, ["G2", "G3"])
    assert bracketed.edge_homs["K1"][1] is None
    with pytest.raises(ValueError, match="certified"):
        build_transversals(bracketed)


def _trivial_edge(p):
    return models.ElementaryAbelian(p, [])


def test_non_path_graphs_are_rejected():
    a = models.ElementaryAbelian(2, ["a"])
    loop = GraphOfGroups(
        Graph(["A"], {"e": ("A", "A")}),
        {"A": VertexData(a, None)}, {"e": _trivial_edge(2)}, {"e": ({}, {})})
    with pytest.raises(ValueError, match="loop"):
        build_transversals(loop)
    vs = {name: VertexData(models.ElementaryAbelian(2, [name.lower()]), None)
          for name in ("A", "B", "C")}
    triangle = GraphOfGroups(
        Graph(["A", "B", "C"],
              {"e1": ("A", "B"), "e2": ("B", "C"), "e3": ("C", "A")}),
        vs, {e: _trivial_edge(2) for e in ("e1", "e2", "e3")},
        {e: ({}, {}) for e in ("e1", "e2", "e3")})
    with pytest.raises(ValueError, match="edge count"):
        build_transversals(triangle)


def test_tables_die_with_their_graph():
    # by reference counting alone: the tables and their step memos hold
    # no cycle, so they go when the graph does, without the collector
    gog = free_product_line(2)
    normal_form(gog, [("L", gen("a")), ("R", gen("b"))])
    refs = [weakref.ref(gog), weakref.ref(amalgam._PATHS[id(gog)])]
    gc.disable()
    try:
        del gog
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _stepwise_walk(gog, a, b):
    """The identity syllables from a to b, one path vertex at a time."""
    order = amalgam._path_order(gog)
    i, j = order.index(a), order.index(b)
    step = 1 if j > i else -1
    walk = []
    for k in range(i + step, j + step, step):
        ends = {order[k - step], order[k]}
        eid = next(e for e in gog.graph.edges
                   if set(gog.graph.ends(e)) == ends)
        walk.append(
            (order[k], gog.vertices[order[k]].model.identity.coords, eid))
    return tuple(walk)


def _walks_by_vertex_names(tables):
    # (from, to) -> the walk as (vertex, coords, entry edge) triples, from
    # the base (None) or each slot's vertex; every syllable's slot is the
    # path's memo of its entry edge and vertex, and its representative
    # is numbered 0, the identity; a walk to a slot is the walk to its
    # vertex
    out = {}
    for top, walks in tables.walk_from.items():
        a = tables.order[0] if top is None else top.vertex
        assert all(walks[slot] is walks[slot.vertex]
                   for slot in tables.steps.values())
        for b, walk in walks.items():
            if b in tables.steps.values():
                continue
            for slot, rep in walk:
                assert slot is tables.steps[(slot.edge, slot.vertex)]
                assert rep == 0
            triples = tuple((slot.vertex, slot.identity, slot.edge)
                            for slot, _ in walk)
            assert out.setdefault((a, b), triples) == triples
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_precomputed_walks_equal_the_stepwise_walks(p):
    # the level-3 joined splittings: nf-products reduces over p = 2's
    gog, _ = joined_witness_specialisation(p, 3)
    tables = amalgam._paths(gog)
    vertices = list(gog.graph.vertices)
    assert len(vertices) == 4
    assert set(tables.walk_from) == {None, *tables.steps.values()}
    walks = _walks_by_vertex_names(tables)
    assert walks == {(a, b): _stepwise_walk(gog, a, b)
                     for a in vertices for b in vertices}
    assert walks[("G1", "W")] and not walks[("G2", "G2")]


def test_a_one_vertex_path_walks_nowhere():
    tables = amalgam._paths(_one_vertex_gog())
    assert tables.order == ("L",) and tables.steps == {}
    assert tables.walk_from == {None: {"L": ()}}


# -- the step memo -----------------------------------------------------------


def _read(numbering, n, identity):
    # the coordinates of n, numbered or standing for itself; 0 is identity
    return numbering.coords.get(n, n) if n else identity


@pytest.fixture
def checked_steps(monkeypatch):
    """Checks every merge step the test makes, hit or miss, against the
    unmemoised sift models.Pcgs.split of rep x on that slot's
    transversal, its numbers read back through the path's numbering,
    and every product into the head, hit or miss, against a fresh
    kernel.mul; counts the steps under "steps", the head products under
    "heads" and the sifts the reduction itself makes under "sifts".
    Path tables, and so their memos, are built afresh for the test."""
    counts = collections.Counter()
    remembered = amalgam._Steps.__getitem__
    remembered_product = amalgam._HeadProducts.__getitem__

    def step(self, key):
        got = remembered(self, key)
        rep, x = (_read(self.numbering, n, self.identity) for n in key)
        s, c = models.Pcgs.split(self.transversal, kernel.mul(
            self.blocks, rep, x))
        assert (_read(self.numbering, got[0], self.identity),
                _read(self.numbering, got[1], (0,) * len(c))) == (s, c), \
            (self.transversal, key)
        counts["steps"] += 1
        return got

    def product(self, key):
        got = remembered_product(self, key)
        head, x = key
        assert got == kernel.mul(self.blocks, head,
                                 _read(self.numbering, x, None)), key
        counts["heads"] += 1
        return got

    def split(self, x):
        counts["sifts"] += 1
        return models.Pcgs.split(self, x)

    monkeypatch.setattr(amalgam, "_PATHS", {})
    monkeypatch.setattr(amalgam._Steps, "__getitem__", step)
    monkeypatch.setattr(amalgam._HeadProducts, "__getitem__", product)
    monkeypatch.setattr(amalgam.Transversal, "split", split)
    return counts


def test_memoised_splits_of_a_benchmark_pass_equal_fresh_sifts(
        checked_steps, monkeypatch):
    # one whole nf-products pass at the benchmark's seed 7: 151,417 merge
    # steps of only 1,293 distinct (representative, letter) pairs over
    # six slots, two of them at G3 and of equal width, and 25,160
    # products into the head of only 145 distinct (head, x) pairs; the
    # digest of its results was taken before the walks were precomputed
    # and the merge ran in place
    monkeypatch.syspath_prepend(str(BENCH))
    import nf
    gog, _ = nf.setup()
    inputs = nf.Inputs(gog, 7)
    digest = hashlib.sha256()
    for i in range(len(inputs)):
        digest.update(repr(nf.compact(nf.op(gog, *inputs[i]))).encode())
    assert (checked_steps["steps"], checked_steps["sifts"]) == (151417, 1293)
    assert checked_steps["heads"] == 25160
    assert len(amalgam._paths(gog).head_products) == 145
    assert digest.hexdigest() == (
        "411b4bdd582a49773ad322ad24a00417f0e2c2149a106db5025104b6d9615118")


def test_a_full_memo_serves_hits_and_takes_no_entry(monkeypatch):
    tables = amalgam._PathTables(joined_witness_specialisation(2, 3)[0])
    steps, table = tables.steps[("K2", "G3")], tables.transversals[
        ("K2", "G3")]
    model = table.hom.target
    assert model.width == 10
    # room for three entries of width 10, not four
    monkeypatch.setattr(amalgam, "STEP_MEMO_COORDS", 39)
    rng = random.Random(5)

    def random_coords():
        return tuple(rng.randrange(m) for m in model.blocks.moduli)

    reps = [model.identity.coords] + [table.split(random_coords())[0]
                                      for _ in range(3)]
    pairs = [(rng.choice(reps), random_coords()) for _ in range(40)]
    number = tables.numbering.__getitem__
    keys = [(number(rep), number(x)) for rep, x in pairs]
    first = [steps[key] for key in keys]
    assert list(steps) == list(dict.fromkeys(keys))[:3]
    for (rep, x), key, got in zip(pairs, keys, first):
        s, c = models.Pcgs.split(table, kernel.mul(model.blocks, rep, x))
        assert got == (number(s), number(c))
        assert (got[1] == 0) == (not any(c))
        assert steps[key] == got
    for key in keys[:3]:
        assert steps[key] is steps.get(key)
    assert len(steps) == 3


def test_a_full_head_memo_serves_hits_and_takes_no_entry(monkeypatch):
    tables = amalgam._PathTables(joined_witness_specialisation(2, 3)[0])
    products = tables.head_products
    model = tables.models[tables.order[0]]
    assert model.width == 4
    # room for two entries, each a head and a product of width 4, not
    # three
    monkeypatch.setattr(amalgam, "STEP_MEMO_COORDS", 23)
    rng = random.Random(5)

    def random_coords():
        # a carried element is never the identity
        x = model.identity.coords
        while not any(x):
            x = tuple(rng.randrange(m) for m in model.blocks.moduli)
        return x

    heads = [model.identity.coords] + [random_coords() for _ in range(3)]
    pairs = [(rng.choice(heads), random_coords()) for _ in range(40)]
    keys = [(head, tables.numbering[x]) for head, x in pairs]
    first = [products[key] for key in keys]
    assert list(products) == list(dict.fromkeys(keys))[:2]
    for (head, x), key, got in zip(pairs, keys, first):
        assert got == kernel.mul(model.blocks, head, x)
        assert products[key] == got
    for key in keys[:2]:
        assert products[key] is products.get(key)
    assert len(products) == 2


def test_a_second_pass_misses_no_step_and_no_head_product(monkeypatch):
    # the reduction calls the kernel only on a miss, and repeating the
    # seed-7 nf-products pass misses nothing: the first pass misses each
    # of its 1,293 distinct steps and 145 distinct head products once,
    # and numbers each syllable it meets once, so the second pass makes
    # no product and no inverse at all
    monkeypatch.setattr(amalgam, "_PATHS", {})
    monkeypatch.syspath_prepend(str(BENCH))
    import nf
    gog, _ = nf.setup()
    inputs = nf.Inputs(gog, 7)
    misses = collections.Counter()

    def counted(name, missing):
        def miss(self, key):
            misses[name] += 1
            return missing(self, key)
        return miss

    for memo in (amalgam._Steps, amalgam._HeadProducts):
        monkeypatch.setattr(memo, "__missing__",
                            counted(memo.__name__, memo.__missing__))
    for i in range(len(inputs)):
        nf.op(gog, *inputs[i])
    assert misses == {"_Steps": 1293, "_HeadProducts": 145}
    misses.clear()
    for name in ("mul", "inv"):
        def call(*args, name=name, law=getattr(kernel, name)):
            misses[name] += 1
            return law(*args)
        monkeypatch.setattr(kernel, name, call)
    for i in range(len(inputs)):
        nf.op(gog, *inputs[i])
    assert not misses


def test_a_tiny_budget_bounds_the_numbering_and_keeps_the_pass(
        monkeypatch):
    # a budget of 100 coordinates: within the first ops of the seed-7
    # nf-products pass the six slot memos stop at 88 entries, the head
    # memo at 12 and the numbering at 15 tuples, 98 coordinates, and
    # none grows after;
    # the tuples met later stand for themselves, and the pass gives the
    # pinned pass's forms
    monkeypatch.setattr(amalgam, "_PATHS", {})
    monkeypatch.setattr(amalgam, "STEP_MEMO_COORDS", 100)
    monkeypatch.syspath_prepend(str(BENCH))
    import nf
    gog, _ = nf.setup()
    tables = amalgam._paths(gog)
    inputs = nf.Inputs(gog, 7)
    digest, sizes = hashlib.sha256(), []
    for i in range(len(inputs)):
        digest.update(repr(nf.compact(nf.op(gog, *inputs[i]))).encode())
        if i + 1 in (500, 1000, 2000, 4000):
            sizes.append((len(tables.numbering.coords), tables.numbering.used,
                          sum(map(len, tables.steps.values())),
                          len(tables.head_products)))
    assert sizes == [(15, 98, 88, 12)] * 4
    assert digest.hexdigest() == (
        "411b4bdd582a49773ad322ad24a00417f0e2c2149a106db5025104b6d9615118")


def test_forms_made_before_and_after_the_numbering_fills_agree(monkeypatch):
    # forms of the same letters from a table with room and from a full
    # one are equal and hash alike, and products of forms holding
    # numbers, tuples standing for themselves or coordinates as given
    # all equal the recursive reference; the budget is small enough that
    # the seed-7 pass fills the numbering while its later letters still
    # meet tuples it has not numbered
    monkeypatch.setattr(amalgam, "_PATHS", {})
    monkeypatch.setattr(amalgam, "STEP_MEMO_COORDS", 500)
    monkeypatch.syspath_prepend(str(BENCH))
    import nf
    gog, _ = nf.setup()
    numbering = amalgam._paths(gog).numbering
    inputs = nf.Inputs(gog, 7)

    def forms(indices):
        return [normal_form(gog, letters) for i in indices
                for letters in inputs[i]]

    before = forms(range(2))
    assert numbering.used <= 500 - 10      # a tuple of any vertex fits
    for i in range(2, len(inputs)):
        nf.op(gog, *inputs[i])
        if numbering.used > 500 - 4:        # no tuple of any vertex fits
            break
    assert numbering.used > 500 - 4
    after, late = forms(range(2)), forms(range(i + 1, i + 5))
    assert any(isinstance(rep, tuple)
               for form in late for _, rep in form._stack)
    given = [amalgam.ReducedWord.from_coords(gog, form._head,
                                             form._syllables)
             for form in late]
    for x, y in zip(before + late, after + given):
        assert x == y and hash(x) == hash(y) and _readouts(x) == _readouts(y)
    for x in before + late:
        for y in after + given:
            want = reference_reduction.nf_multiply(x, y)
            assert nf_multiply(x, y) == want
            assert nf_multiply(y, x) == reference_reduction.nf_multiply(y, x)


def test_separately_built_splittings_keep_separate_memos():
    first, second = free_product_line(2), free_product_line(2)
    nf = normal_form(first, [("L", gen("a")), ("R", gen("b")),
                             ("L", gen("a"))])
    assert len(nf.syllables) == 2
    ones, twos = amalgam._paths(first).steps, amalgam._paths(second).steps
    assert set(ones) == set(twos) == {("e", "L"), ("e", "R")}
    assert all(ones[slot] for slot in ones)
    assert all(ones[slot] is not twos[slot] and twos[slot] == {}
               for slot in ones)
    # the first letter, at the base vertex, went into the first head
    heads = [amalgam._paths(gog).head_products for gog in (first, second)]
    assert heads[0] is not heads[1] and len(heads[0]) == 1 and heads[1] == {}
    # the same pair steps differently at a joined splitting's two slots
    # at G2, so one slot never answers for another
    tables = amalgam._paths(p2_joined())
    at_g2 = [slot for slot in tables.steps if slot[1] == "G2"]
    assert len(at_g2) == 2
    x = tables.models["G2"].generators["k1"].coords
    key = (0, tables.numbering[x])
    assert tables.steps[at_g2[0]][key] != tables.steps[at_g2[1]][key]


# -- normal forms ------------------------------------------------------------


def test_same_vertex_inverse_pair_reduces_to_nothing():
    nf = normal_form(p2_path(), [("G1", gen("c")), ("G1", ~gen("c"))])
    assert nf.is_trivial


def test_edge_identified_elements_cancel_across_the_edge():
    path = p2_path()
    for name in ("k1", "h0", "h1"):
        nf = normal_form(path, [("G1", gen(name)), ("G2", ~gen(name))])
        assert nf.is_trivial


def test_cross_edge_product_keeps_two_letters():
    path = p2_path()
    nf = normal_form(path, [("G1", gen("c")), ("G2", gen("k2"))])
    assert not nf.is_trivial
    letters = nf.letters()
    assert len(letters) == 2
    assert letters[0][0] == "G1" and letters[1][0] == "G2"
    assert letters[0][1] == path.vertices["G1"].model.generators["c"]


def test_empty_input_is_the_trivial_form():
    assert normal_form(p2_path(), []).is_trivial


def test_letters_are_validated():
    path = p2_path()
    with pytest.raises(ValueError, match="unknown vertex"):
        normal_form(path, [("X", gen("c"))])
    with pytest.raises(ValueError, match="no image for generator"):
        normal_form(path, [("G1", gen("zz"))])
    foreign = path.vertices["G2"].model.generators["k2"]
    with pytest.raises(ValueError, match=(
            "^letter 1: element does not belong to vertex G1$")):
        normal_form(path, [("G2", gen("k2")), ("G1", foreign)])
    with pytest.raises(ValueError, match=(
            "^letter 1: expected a Word or GroupElement$")):
        normal_form(path, [("G1", gen("c")), ("G2", "k2")])


def test_a_failed_last_letter_leaves_no_trace():
    # the letters are read as the reduction reaches them, so every letter
    # before the bad one has been reduced, its steps remembered
    prefix = [("G1", gen("c")), ("G2", gen("k2") * gen("h3", -1)),
              ("G1", gen("k1", -1)), ("G2", gen("h0"))]
    path, fresh = _tail_gog(2, 0, 2), _tail_gog(2, 0, 2)
    with pytest.raises(ValueError, match="no image for generator zz"):
        normal_form(path, prefix + [("G1", gen("zz"))])
    assert any(amalgam._paths(path).steps.values())
    got, want = normal_form(path, prefix), normal_form(fresh, prefix)
    assert not got.is_trivial and repr(got) == repr(want)


# -- word letters ------------------------------------------------------------


def _syllable_letters(rng, gog, count):
    # words of one to four syllables with exponents up to +-4, so that
    # syllables past +-1 and, at p = 2, syllables that are the identity
    # (a lamp squared) are met
    vertices = list(gog.graph.vertices)
    out = []
    for _ in range(count):
        v = rng.choice(vertices)
        names = list(gog.vertices[v].model.generators)
        out.append((v, Word(tuple(
            (rng.choice(names), rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
            for _ in range(rng.randint(1, 4))))))
    return out


@pytest.mark.parametrize("p, named", [
    (2, [("G2", gen("h1", 2)), ("G3", gen("k3", 3)), ("W", gen("t", -4)),
         ("G1", gen("h0", 2)),
         ("G3", gen("k3") * gen("h0", 2) * gen("k2", -1)),
         ("W", gen("h2", -2) * gen("t", 3))]),
    (3, [("G2", gen("h1", 2)), ("G3", gen("k3", 3)), ("W", gen("t", -4)),
         ("G3", gen("h5", 3) * gen("k2", -1)), ("G1", gen("c", -1)),
         ("W", gen("h0", -3) * gen("t"))])])
def test_word_letters_reduce_as_their_elements_and_generators(p, named):
    # a Word letter enters the reduction one syllable at a time; its form
    # equals that of its evaluated element and that of the same word split
    # one generator per letter
    gog = build_graphs(p, 3, 0).joined
    vertex_models = {v: gog.vertices[v].model for v in gog.graph.vertices}
    rng = random.Random(3400 + p)
    cases = [named] + [_syllable_letters(rng, gog, rng.randint(1, 6))
                       for _ in range(150)]
    for letters in cases:
        nf = normal_form(gog, letters)
        elements = normal_form(gog, [(v, vertex_models[v].evaluate(w))
                                     for v, w in letters])
        generators = normal_form(gog, [(v, gen(name, sign))
                                       for v, w in letters
                                       for name, sign in w.letters()])
        assert nf == elements == generators
        assert hash(nf) == hash(elements) == hash(generators)
        assert repr(nf) == repr(elements) == repr(generators)
    # the identity syllables at p = 2 reduce to nothing
    if p == 2:
        assert normal_form(gog, [("G1", gen("h0", 2)),
                                 ("W", gen("h1", -2))]).is_trivial


def test_the_letter_table_numbers_each_generator_and_inverse_once(
        monkeypatch):
    # the generators and inverses are numbered when the tables are built
    # and never renumbered; a syllable of any other exponent is numbered
    # the first time it is met and kept, and each kept entry reads back
    # the coordinates that evaluating the syllable afresh gives
    monkeypatch.setattr(amalgam, "_PATHS", {})
    gog = build_graphs(2, 3, 0).joined
    tables = amalgam._paths(gog)
    numbering = tables.numbering
    built = {v: dict(letters) for v, letters in tables.letters.items()}
    for v, model in tables.models.items():
        assert len(built[v]) == 2 * len(model.generators)
        for name, element in model.generators.items():
            for e, want in ((1, element), (-1, ~element)):
                n = built[v][name, e]
                assert _read(numbering, n, model.identity.coords) == \
                    want.coords
    letters = [(v, gen(name, e)) for v, model in tables.models.items()
               for name in model.generators for e in range(-50, 51) if e]
    normal_form(gog, letters)
    normal_form(gog, [(v, w * w) for v, w in letters])
    for v, model in tables.models.items():
        table = tables.letters[v]
        assert {key: table[key] for key in built[v]} == built[v]
        assert set(table) == {(name, k * e) for name in model.generators
                              for e in range(-50, 51) if e for k in (1, 2)}
        for (name, e), n in table.items():
            assert _read(numbering, n, model.identity.coords) == \
                model.word_coords(gen(name, e))


def test_a_full_letter_table_takes_no_syllable_and_keeps_the_pass(
        monkeypatch):
    # a budget of 200 coordinates: by its 2,000th op the seed-7
    # nf-products pass has filled the letter tables at G2 (33 entries of
    # width 6) and W (22 of width 9), where an unbounded pass keeps 36 and
    # 43; G3's 20 generators and inverses of width 10 fill its table when
    # it is built, and G1 keeps all 24 syllables it meets.  No table grows
    # after, every kept syllable reads back its fresh coordinates, and the
    # pass gives the pinned pass's forms
    monkeypatch.setattr(amalgam, "_PATHS", {})
    monkeypatch.setattr(amalgam, "STEP_MEMO_COORDS", 200)
    monkeypatch.syspath_prepend(str(BENCH))
    import nf
    gog, _ = nf.setup()
    tables = amalgam._paths(gog)
    inputs = nf.Inputs(gog, 7)
    digest, sizes = hashlib.sha256(), []
    for i in range(len(inputs)):
        digest.update(repr(nf.compact(nf.op(gog, *inputs[i]))).encode())
        if i + 1 in (2000, 4000):
            sizes.append({v: len(table)
                          for v, table in tables.letters.items()})
    assert sizes == [{"G1": 24, "G2": 33, "G3": 20, "W": 22}] * 2
    for v, table in tables.letters.items():
        model = tables.models[v]
        assert len(table) * model.width <= 200
        for (name, e), n in table.items():
            assert _read(tables.numbering, n, model.identity.coords) == \
                model.word_coords(gen(name, e))
    assert digest.hexdigest() == (
        "411b4bdd582a49773ad322ad24a00417f0e2c2149a106db5025104b6d9615118")


def test_an_unknown_generator_past_a_words_first_syllable_is_named():
    path = p2_path()
    for bad in (gen("zz"), gen("zz", -3)):
        with pytest.raises(ValueError, match=(
                "^letter 1 at G2: 'no image for generator zz'$")):
            normal_form(path, [("G1", gen("c")), ("G2", gen("k2") * bad)])


def _random_word(rng, names, max_len=3):
    letters = [(rng.choice(names), rng.choice((1, -1)))
               for _ in range(rng.randrange(max_len + 1))]
    return from_letters(letters)


def _random_letters(rng, gog, count):
    out = []
    vertices = list(gog.graph.vertices)
    for _ in range(count):
        v = rng.choice(vertices)
        names = list(gog.vertices[v].model.generators)
        out.append((v, _random_word(rng, names)))
    return out


def _inverse_letters(letters):
    return [(v, ~w) for v, w in reversed(letters)]


def test_a_thousand_products_with_their_inverses_vanish():
    rng = random.Random(1201)
    path = p2_path()
    for _ in range(1000):
        letters = _random_letters(rng, path, rng.randrange(1, 5))
        x = normal_form(path, letters)
        xi = normal_form(path, _inverse_letters(letters))
        assert nf_multiply(x, xi).is_trivial
        assert nf_multiply(xi, x).is_trivial


def test_a_thousand_triple_products_associate():
    rng = random.Random(1202)
    path = p2_path()
    for _ in range(1000):
        x, y, z = (normal_form(path, _random_letters(rng, path, 2))
                   for _ in range(3))
        assert nf_multiply(nf_multiply(x, y), z) == \
            nf_multiply(x, nf_multiply(y, z))


def test_a_thousand_inserted_cancelling_pairs_change_nothing():
    rng = random.Random(1203)
    path = p2_path()
    vertices = list(path.graph.vertices)
    for _ in range(1000):
        letters = _random_letters(rng, path, rng.randrange(1, 4))
        v = rng.choice(vertices)
        w = _random_word(rng, list(path.vertices[v].model.generators))
        at = rng.randrange(len(letters) + 1)
        padded = letters[:at] + [(v, w), (v, ~w)] + letters[at:]
        plain = normal_form(path, letters)
        assert normal_form(path, padded) == plain
        assert len(normal_form(path, padded).syllables) == \
            len(plain.syllables)


def test_normal_form_agrees_with_the_witness_in_both_directions():
    rng = random.Random(1204)
    build_witnesses(2, 2)
    gog, spec = path_witness_specialisation(2, 2)
    for _ in range(400):
        letters = _random_letters(rng, gog, rng.randrange(1, 4))
        nf = normal_form(gog, letters)
        image = spec.target.identity
        for v, w in letters:
            image = image * spec.vertex_hom(v).apply(w)
        if nf.is_trivial:
            assert image.is_identity
        if not image.is_identity:
            assert not nf.is_trivial


@pytest.mark.parametrize("p,level,counts", [
    (2, 2, {"products": 150, "letters": 1263, "inverse": 598, "at W": 426}),
    (2, 3, {"products": 150, "letters": 1328, "inverse": 634, "at W": 311}),
    (2, 4, {"products": 150, "letters": 1337, "inverse": 657, "at W": 271}),
    (3, 2, {"products": 150, "letters": 1385, "inverse": 692, "at W": 466}),
    (3, 3, {"products": 150, "letters": 1375, "inverse": 693, "at W": 327}),
])
def test_in_place_reduction_equals_the_recursive_reference(p, level, counts):
    # seeded letter lists over the joined splitting: words of up to three
    # generators, inverses included, at every vertex W included
    gog = build_graphs(p, level, 0).joined
    rng = random.Random(f"{p}/{level}")
    seen = collections.Counter()
    for _ in range(counts["products"]):
        a, b = (_random_letters(rng, gog, rng.randrange(1, 9))
                for _ in range(2))
        x, y = normal_form(gog, a), normal_form(gog, b)
        pairs = [(x, reference_reduction.normal_form(gog, a)),
                 (y, reference_reduction.normal_form(gog, b)),
                 (nf_multiply(x, y), reference_reduction.nf_multiply(x, y))]
        for got, want in pairs:
            # == reads the syllables' slots; the readouts name them
            assert got == want, (a, b)
            assert _readouts(got) == _readouts(want), (a, b)
        seen["products"] += 1
        for v, word in a + b:
            seen["letters"] += 1
            seen["inverse"] += any(sign < 0 for _, sign in word.letters())
            seen["at W"] += v == "W"
    assert seen == counts


def test_multiplying_by_the_empty_form_is_the_identity():
    path = p2_path()
    empty = normal_form(path, [])
    x = normal_form(path, [("G1", gen("c")), ("G2", gen("k2") * gen("h3"))])
    assert nf_multiply(x, empty) == x
    assert nf_multiply(empty, x) == x


def _readouts(w):
    # a form's public readouts: base vertex, head coordinates and
    # (vertex, representative coordinates, entry edge) syllables
    return (w.base_vertex, w.head.coords,
            tuple((v, rep.coords, eid) for v, rep, eid in w.syllables))


def test_equal_products_give_equal_forms_and_hashes():
    path = p2_path()
    # k1 is one edge element, read at either end; h0 h0^-1 cancels
    pairs = [
        ([("G1", gen("k1"))], [("G2", gen("k1"))]),
        ([("G1", gen("c")), ("G2", gen("k2"))],
         [("G1", gen("c")), ("G2", gen("k2")), ("G2", gen("h0")),
          ("G2", gen("h0", -1))]),
        ([], [("G1", gen("c")), ("G1", gen("c", -1))]),
    ]
    for a, b in pairs:
        x, y = normal_form(path, a), normal_form(path, b)
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        assert _readouts(x) == _readouts(y)
    forms = {normal_form(path, a) for pair in pairs for a in pair}
    assert len(forms) == 3
    assert normal_form(path, []) in forms


def test_reprs_of_a_trivial_a_head_only_and_a_syllabled_form():
    path = p2_path()
    assert repr(normal_form(path, [])) == "<ReducedWord trivial>"
    assert repr(normal_form(path, [("G2", gen("k1"))])) == \
        "<ReducedWord head=(1, 0, 0, 0)>"
    assert repr(normal_form(
        path, [("G2", gen("k2")), ("G1", gen("c")), ("G2", gen("h3"))])) == (
        "<ReducedWord head=(0, 0, 0, 0) G2:(0, 1, 0, 0, 0, 0) "
        "G1:(0, 0, 0, 1) G2:(0, 0, 0, 0, 0, 1)>")


def _one_vertex_gog():
    return GraphOfGroups(
        Graph(["L"], {}),
        {"L": VertexData(models.ElementaryAbelian(3, ["a", "b"]), None)},
        {}, {})


def test_a_one_vertex_path_reduces_into_its_head():
    gog = _one_vertex_gog()
    model = gog.vertices["L"].model
    x = normal_form(gog, [("L", gen("a")), ("L", gen("b")),
                          ("L", gen("a", 2))])
    assert x.syllables == () and x.head == model.evaluate(gen("b"))
    assert repr(x) == "<ReducedWord head=(0, 1)>"
    assert normal_form(gog, [("L", gen("a", 3))]).is_trivial
    y = normal_form(gog, [("L", gen("a")), ("L", model.generators["b"])])
    product = nf_multiply(x, y)
    assert product == normal_form(gog, [("L", gen("a") * gen("b", 2))])
    assert product.letters() == [
        ("L", model.evaluate(gen("a") * gen("b", 2)))]
    assert nf_multiply(x, normal_form(gog, [("L", gen("b", -1))])).is_trivial


def test_multiplying_words_over_different_graphs_is_rejected():
    x = normal_form(p2_path(), [("G1", gen("c"))])
    y = normal_form(build_graphs(2, 3, 0).path, [("G1", gen("c"))])
    with pytest.raises(ValueError, match="different graphs"):
        nf_multiply(x, y)


def test_lamplighter_vertex_participates_in_normal_forms():
    joined = p2_joined()
    letters = [("G1", gen("k1")), ("W", gen("t"))]
    nf = normal_form(joined, letters)
    assert not nf.is_trivial
    assert nf_multiply(nf, normal_form(joined, _inverse_letters(letters))
                       ).is_trivial
    # lamp content alone is edge-group content: it crosses into the path
    absorbed = normal_form(joined, [("W", gen("h0")), ("G1", gen("c"))])
    assert not absorbed.is_trivial
    assert nf_multiply(absorbed, normal_form(
        joined, [("G1", ~gen("c")), ("W", ~gen("h0"))])).is_trivial


# -- separation --------------------------------------------------------------


def test_separation_of_the_basic_mixed_word():
    verdict, cert = separate(
        [path_letter("G1", gen("k1")), lamp_letter(1, gen("t"))], 2)
    assert verdict is Verdict.SEPARATED
    assert cert.level == 1
    assert cert.specialisation.target.name == "En(2,1)"
    assert not cert.image.is_identity
    assert not cert.reduced.is_trivial
    assert cert.reevaluate() == cert.image


def test_trivial_words_are_reported_as_trivial():
    trivial = (Verdict.TRIVIAL, None)
    assert separate([], 2) == trivial
    assert separate([path_letter("G1", gen("k1") * ~gen("k1"))], 2) == trivial
    # trivial exactly at its native level, after surviving a lossy fold
    assert separate([lamp_letter(2, gen("t") ** 4)], 2) == trivial


def test_lamp_window_content_merges_and_separates_via_the_path():
    verdict, cert = separate(
        [path_letter("G1", gen("k1")), lamp_letter(1, gen("h0"))], 2)
    assert verdict is Verdict.SEPARATED
    assert cert.level == 1
    assert not cert.image.is_identity
    assert cert.reevaluate() == cert.image


def test_separation_level_is_the_least_one():
    # t^2 folds to nothing at level 1 and survives at level 2
    verdict, cert = separate([lamp_letter(2, gen("t") ** 2)], 2)
    assert verdict is Verdict.SEPARATED
    assert cert.level == 2
    assert cert.specialisation.target.name == "En(2,2)"


def test_separation_at_the_third_level():
    verdict, cert = separate(
        [path_letter("G3", gen("k3")), lamp_letter(3, gen("t"))], 2)
    assert verdict is Verdict.SEPARATED
    assert cert.level == 3
    assert cert.reevaluate() == cert.image


def _census(p, letters, max_level=3):
    """Every word of 1-3 of the letters, reduced at each level its search
    tries: the witness image of the normal form's letters must be the
    word's direct image, and an empty form must have a trivial one."""
    words, counts = [[]], {"words": 0, "empty range": 0, "level checks": 0}
    for _ in range(3):
        words = [w + [x] for w in words for x in letters]
        for word in words:
            counts["words"] += 1
            try:
                levels = search_levels(word, 1, max_level)
            except ValueError:
                counts["empty range"] += 1
                continue
            for level in levels:
                spec = amalgam._level_data(p, level)
                nf = normal_form(spec.gog, amalgam._level_items(word, p, level))
                image = spec.target.identity
                for v, element in nf.letters():
                    image = image * spec.vertex_hom(v).apply_element(element)
                direct = amalgam._direct_image(word, p, level, spec)
                assert image == direct, (word, level)
                assert not nf.is_trivial or direct.is_identity, (word, level)
                counts["level checks"] += 1
    return counts


def test_census_of_short_words_at_p2(checked_steps):
    letters = [path_letter("G1", gen("k1")), path_letter("G1", gen("h0")),
               path_letter("G1", gen("c")), lamp_letter(1, gen("t")),
               lamp_letter(1, gen("h0")), path_letter("G2", gen("k2")),
               path_letter("G2", gen("h1")), lamp_letter(2, gen("t")),
               lamp_letter(2, gen("h1"))]
    assert _census(2, letters) == {
        "words": 819, "empty range": 176, "level checks": 953}
    assert checked_steps["steps"] > 0


def test_census_of_short_words_at_p3(checked_steps):
    letters = [path_letter("G1", gen("k1", sign)) for sign in (1, -1)] + \
        [path_letter("G1", gen(name, sign))
         for name in ("h0", "c") for sign in (1, -1)] + \
        [lamp_letter(1, gen(name, sign))
         for name in ("t", "h0") for sign in (1, -1)]
    assert _census(3, letters) == {
        "words": 1110, "empty range": 0, "level checks": 1626}
    assert checked_steps["steps"] > 0


def test_level_caches_stay_bounded_across_many_levels():
    # more (p, level) pairs than the caches keep, each searched at its
    # own level alone; a second sweep rebuilds what the first evicted
    pairs = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
             (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)]
    assert len(pairs) > LEVEL_CACHE
    caches = (tower.vertex_data, tower._edge_data, tower.build_level,
              tower.build_graphs, amalgam._level_data)

    def sweep():
        out = []
        for p, level in pairs:
            verdict, cert = separate(
                [path_letter(f"G{level}", gen(f"k{level}")),
                 lamp_letter(level, gen("t"))], p, level, level)
            assert all(cache.cache_info().currsize <= LEVEL_CACHE
                       for cache in caches)
            out.append((verdict, cert.level, cert.image.coords,
                        repr(cert.reduced)))
        return out

    first = sweep()
    assert all(cache.cache_info().currsize == LEVEL_CACHE
               for cache in caches)
    assert {verdict for verdict, *_ in first} == {Verdict.SEPARATED}
    assert sweep() == first


@pytest.mark.parametrize("p,level,target", [
    pytest.param(2, 4, "SCW(2,4)", id="2-4"),
    pytest.param(3, 2, "En(3,2)", id="3-2")])
def test_every_level_searches_a_fully_certified_witness(p, level, target):
    # past 2^16 lamplighter elements too, and enumerating nothing
    spec = amalgam._level_data.__wrapped__(p, level)
    assert spec.target.name == target
    assert spec.gog is build_graphs(p, level, 0).joined
    assert verify_properness_witness(spec).valid


def test_exhausted_search_reports_inconclusive():
    # only level 1 holds both letters, and there the word folds to t^2,
    # which level 1 does not certify
    letters = [lamp_letter(1, gen("t")), lamp_letter(2, gen("t"))]
    assert search_levels(letters, 1, 3) == range(1, 2)
    assert separate(letters, 2, max_level=3) == (Verdict.INCONCLUSIVE, None)


@pytest.mark.parametrize("letters, max_level", [
    pytest.param([path_letter("G3", gen("k3"))], 2, id="above-max"),
    pytest.param([lamp_letter(1, gen("t")), path_letter("G2", gen("k2"))], 4,
                 id="lamp-below-path")])
def test_an_empty_level_range_is_refused(letters, max_level):
    # no level was tried, so there is no verdict, not even an inconclusive one
    with pytest.raises(ValueError, match="holds every letter"):
        separate(letters, 2, max_level=max_level)
    with pytest.raises(ValueError, match="holds every letter"):
        check_search(letters, 2, 1, max_level)


def test_letter_constructors_validate():
    with pytest.raises(ValueError, match="G<i>"):
        path_letter("W", gen("t"))
    with pytest.raises(ValueError, match="expected a Word"):
        path_letter("G1", "k1")
    with pytest.raises(ValueError, match="unknown generator"):
        lamp_letter(1, gen("x"))
    element = models.LamplighterLevel(2, 1).generators["t"]
    with pytest.raises(ValueError, match="expected a Word"):
        lamp_letter(1, element)
    with pytest.raises(ValueError, match="PathLetter or LampLetter"):
        separate([gen("t")], 2)
