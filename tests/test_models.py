"""Model-level checks against independent oracles.

Two oracles that share no code with the kernel:

* the Heisenberg model is compared entry-by-entry with 3x3 unitriangular
  matrix multiplication;
* the twist models (GnModel, FnModel) are compared with a letter-by-letter
  collection oracle that multiplies normal forms h^x k^u by pushing each
  lamp letter of the right factor through the chain string, applying the
  defining commutation relations one letter at a time.

The remaining tests pin down the defining relations, the closed-form
orders, and the model API surface.
"""

import ast
import random
from pathlib import Path

import pytest

from pgog import _kernels_py as kpy
from pgog import models
from pgog.words import Word, commutator, gen


# -- Heisenberg vs unitriangular matrices -----------------------------------

def as_matrix(coords):
    a, c, b = coords
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def mat_mul(p, m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) % p for j in range(3))
        for i in range(3))


@pytest.mark.parametrize("p", [2, 3])
def test_heisenberg_matches_matrix_group(p):
    m = models.HeisenbergModP(p)
    elems = [e.coords for e in m.closure()]
    assert len(elems) == p ** 3
    for a in elems:
        for b in elems:
            prod = kpy.mul(m.blocks, a, b)
            assert as_matrix(prod) == mat_mul(p, as_matrix(a), as_matrix(b))


def test_heisenberg_commutator_is_central_of_order_p():
    for p in (2, 3):
        m = models.HeisenbergModP(p)
        x, y = m.generators["x"], m.generators["y"]
        z = m.commutator(x, y)
        assert not z.is_identity
        assert m.element_order(z) == p
        assert z * x == x * z and z * y == y * z
        assert m.power(z, p).is_identity


# -- twist models vs the collection oracle ----------------------------------

def collection_mul(p, nk, bumps, a, b):
    """Multiply h-left normal forms h^x k^u.

    Coordinates are (u_0..u_{nk-1}, x_0..).  bumps maps a lamp index j to
    (src, dst) layer pairs: one h_j letter passing the chain string turns
    each k_src letter loose a k_dst, i.e. u_dst += u_src.
    """
    u = list(a[:nk])
    for j, cnt in enumerate(b[nk:]):
        for _ in range(cnt):
            for src, dst in bumps.get(j, ()):
                u[dst] = (u[dst] + u[src]) % p
    x = [(pa + pb) % p for pa, pb in zip(a[nk:], b[nk:])]
    u = [(pa + pb) % p for pa, pb in zip(u, b[:nk])]
    return tuple(u + x)


def gn_oracle(p, n):
    return lambda a, b: collection_mul(p, 2, {p ** (n - 1): ((0, 1),)}, a, b)


def fn_oracle(p, n):
    bumps = {p ** i: ((i - 1, i),) for i in range(1, n)}
    return lambda a, b: collection_mul(p, n, bumps, a, b)


def assert_full_table(m, oracle):
    elems = [e.coords for e in m.closure()]
    for a in elems:
        for b in elems:
            assert kpy.mul(m.blocks, a, b) == oracle(a, b)


def assert_sampled_table(m, oracle, trials=2000):
    mods = [m.p] * m.width
    rng = random.Random(5150)
    for _ in range(trials):
        a = tuple(rng.randrange(q) for q in mods)
        b = tuple(rng.randrange(q) for q in mods)
        assert kpy.mul(m.blocks, a, b) == oracle(a, b)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_gn_full_table_matches_collection(p, n):
    assert_full_table(models.GnModel(p, n), gn_oracle(p, n))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_gn_sampled_table_matches_collection(p, n):
    assert_sampled_table(models.GnModel(p, n), gn_oracle(p, n))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_fn_full_table_matches_collection(p, n):
    assert_full_table(models.FnModel(p, n), fn_oracle(p, n))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
def test_fn_sampled_table_matches_collection(p, n):
    assert_sampled_table(models.FnModel(p, n), fn_oracle(p, n))


# -- defining relations -------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_gn_relations(p, n):
    m = models.GnModel(p, n)
    pn = p ** n
    lo, hi = m.generators[f"k{n - 1}"], m.generators[f"k{n}"]
    hs = [m.generators[f"h{j}"] for j in range(pn)]
    assert m.commutator(lo, hs[p ** (n - 1)]) == hi
    for j in range(pn):
        assert m.commutator(hi, hs[j]).is_identity
        if j != p ** (n - 1):
            assert m.commutator(lo, hs[j]).is_identity
        assert m.element_order(hs[j]) == p
        for i in range(j):
            assert m.commutator(hs[i], hs[j]).is_identity
    assert m.element_order(lo) == p and m.element_order(hi) == p
    assert m.commutator(lo, hi).is_identity


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_fn_relations(p, n):
    m = models.FnModel(p, n)
    pn = p ** n
    ks = [m.generators[f"k{i}"] for i in range(1, n + 1)]
    hs = [m.generators[f"h{j}"] for j in range(pn)]
    for i in range(1, n):
        assert m.commutator(ks[i - 1], hs[p ** i]) == ks[i]
    twist_of = {p ** i: i for i in range(1, n)}
    for idx, k in enumerate(ks, start=1):
        for j in range(pn):
            if twist_of.get(j) != idx:
                assert m.commutator(k, hs[j]).is_identity
    for a in ks:
        for b in ks:
            assert m.commutator(a, b).is_identity
        assert m.element_order(a) == p


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_lamplighter_relations(p, n):
    m = models.LamplighterLevel(p, n)
    pn = p ** n
    t = m.generators["t"]
    hs = [m.generators[f"h{j}"] for j in range(pn)]
    for j in range(pn):
        assert ~t * hs[j] * t == hs[(j + 1) % pn]
        assert m.element_order(hs[j]) == p
        for i in range(j):
            assert m.commutator(hs[i], hs[j]).is_identity
    assert m.element_order(t) == pn
    assert len(m.closure([f"h{j}" for j in range(pn)])) == p ** pn


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_en_witness_relations(p, n):
    m = models.EnWitnessModel(p, n)
    pn = p ** n
    t = m.generators["t"]
    hs = [m.generators[f"h{j}"] for j in range(pn)]
    for j in range(pn):
        assert ~t * hs[j] * t == hs[(j + 1) % pn]
    for i in range(1, n + 1):
        for r in range(pn):
            k = m.generators[f"k{i}_{r}"]
            assert ~t * k * t == m.generators[f"k{i}_{(r + 1) % pn}"]
            assert m.element_order(k) == p
    # each shifted copy of the chain twists at its own lamp index
    for r in range(pn):
        if n >= 2:
            k1 = m.generators[f"k1_{r}"]
            assert m.commutator(k1, hs[(p + r) % pn]) == m.generators[f"k2_{r}"]
            for j in range(pn):
                if j != (p + r) % pn:
                    assert m.commutator(k1, hs[j]).is_identity
        top = m.generators[f"k{n}_{r}"]
        for j in range(pn):
            assert m.commutator(top, hs[j]).is_identity
    assert m.element_order(t) == pn


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3)])
def test_chain_witness_relations(p, n):
    m = models.ChainWitness(p, n)
    pn = p ** n
    ks = [m.generators[f"k{i}"] for i in range(1, n + 1)]
    hs = [m.generators[f"h{j}"] for j in range(pn)]
    twist_of = {p ** i: i for i in range(1, n)}
    # the full chain survives: [k_{i-1}, h at twist index] = k_i, nonzero
    for i in range(2, n + 1):
        assert m.commutator(ks[i - 2], hs[p ** (i - 1)]) == ks[i - 1]
        assert not ks[i - 1].is_identity
    # every commutation a chain vertex demands holds...
    for idx, k in enumerate(ks, start=1):
        for j in range(pn):
            if twist_of.get(j, n) >= idx:
                continue   # higher twist rows are not required to commute
            assert m.commutator(k, hs[j]).is_identity
        assert m.element_order(k) == p
    # ...including everything against the top generator
    for j in range(pn):
        assert m.commutator(ks[-1], hs[j]).is_identity
        assert m.element_order(hs[j]) == p
        for i in range(j):
            assert m.commutator(hs[i], hs[j]).is_identity
    c = m.generators["c"]
    assert m.element_order(c) == p
    for g in m.generators.values():
        assert m.commutator(c, g).is_identity


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_shifted_chain_witness_relations(p, n):
    m = models.ShiftedChainWitness(p, n)
    pn = p ** n
    t = m.generators["t"]
    ks = [m.generators[f"k{i}"] for i in range(1, n + 1)]
    hs = [m.generators[f"h{j}"] for j in range(pn)]
    for j in range(pn):
        assert ~t * hs[j] * t == hs[(j + 1) % pn]
    for i in range(2, n + 1):
        assert m.commutator(ks[i - 2], hs[p ** (i - 1)]) == ks[i - 1]
        assert not ks[i - 1].is_identity
    twist_of = {p ** i: i for i in range(1, n)}
    for idx, k in enumerate(ks, start=1):
        for j in range(pn):
            if twist_of.get(j, n) >= idx:
                continue
            assert m.commutator(k, hs[j]).is_identity
    for j in range(pn):
        assert m.commutator(ks[-1], hs[j]).is_identity
    assert m.element_order(t) == pn
    # the shift moves the chain to a fresh orbit copy and cycles back
    if n >= 2:
        moved = ~t * ks[0] * t
        assert moved != ks[0]
        assert m.power(~t, pn) * ks[0] * m.power(t, pn) == ks[0]
    c = m.generators["c"]
    assert m.element_order(c) == p
    for g in m.generators.values():
        assert m.commutator(c, g).is_identity


# -- closed-form orders -------------------------------------------------------
#
# model.order comes from an induced polycyclic sequence; the length of the
# BFS closure checks it exhaustively.

def assert_order(model, expected):
    assert model.order == expected
    assert len(model.closure()) == expected


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_order_formulas(p, n):
    pn = p ** n
    assert_order(models.GnModel(p, n), p ** (2 + pn))
    assert_order(models.LamplighterLevel(p, n), p ** (pn + n))
    if n <= 2:
        assert_order(models.FnModel(p, n), p ** (n + pn))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_en_witness_order(p, n):
    pn = p ** n
    assert_order(models.EnWitnessModel(p, n), p ** (n * pn + pn + n))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_chain_witness_order(p, n):
    # all 2^(n-1) module monomials are reachable, the lamps contribute p^n
    # dimensions, and c one more; the multiplier coordinates are locked to
    # the lamp at their twist index, so they add nothing.
    expected = p ** (2 ** (n - 1) + p ** n + 1)
    assert_order(models.ChainWitness(p, n), expected)


def test_cyclic_model_order_and_generator():
    m = models.CyclicModel(3, 2)
    assert_order(m, 9)
    assert m.element_order(m.generators["z"]) == 9
    assert m.power(m.generators["z"], 9).is_identity


# -- polycyclic orders and membership against BFS ----------------------------

# every model constructor, at each size under 2^12 elements the suite uses
SMALL = [
    models.ElementaryAbelian(3, ["a", "b", "c"]),
    models.CyclicModel(2, 3),
    models.CyclicModel(5, 2),
    models.HeisenbergModP(2),
    models.HeisenbergModP(3),
    models.GnModel(2, 1),
    models.GnModel(2, 2),
    models.GnModel(2, 3),
    models.GnModel(3, 1),
    models.FnModel(2, 1),
    models.FnModel(2, 2),
    models.FnModel(3, 1),
    models.LamplighterLevel(2, 1),
    models.LamplighterLevel(2, 2),
    models.LamplighterLevel(2, 3),
    models.LamplighterLevel(3, 1),
    models.EnWitnessModel(2, 1),
    models.EnWitnessModel(3, 1),
    models.ChainWitness(2, 1),
    models.ChainWitness(2, 2),
    models.ChainWitness(3, 1),
    models.ShiftedChainWitness(2, 1),
    models.DirectProduct(models.HeisenbergModP(2),
                         models.ElementaryAbelian(2, ["d", "e"])),
]


def random_element(m, rng):
    names = list(m.generators)
    e = m.identity
    for _ in range(rng.randint(0, 6)):
        g = m.generators[rng.choice(names)]
        e = e * (g if rng.random() < 0.5 else ~g)
    return e


def assert_pc_matches_bfs(m, gens, probes):
    """Order and membership of <gens> by sifting equal the BFS closure's."""
    sub, table = m.subgroup(gens), m.closure(gens)
    assert sub.order == len(table), (m.name, gens)
    members = {e.coords for e in table}
    assert all(e in sub for e in table), (m.name, gens)
    for x in probes:
        assert (x in sub) == (x.coords in members), (m.name, gens, x)


@pytest.mark.parametrize("m", SMALL, ids=lambda m: m.name)
def test_pc_matches_bfs_on_random_subsets(m):
    assert m.order < 2 ** 12 and len(m.closure()) == m.order
    rng = random.Random(m.name)
    names = list(m.generators)
    probes = [random_element(m, rng) for _ in range(30)]
    probes += list(m.generators.values())
    for _ in range(12):
        if rng.random() < 0.5:
            gens = rng.sample(names, rng.randint(1, min(4, len(names))))
        else:
            gens = [random_element(m, rng) for _ in range(rng.randint(1, 3))]
        assert_pc_matches_bfs(m, gens, probes)


def extends_to_hom_by_bfs(hom):
    """Exhaustive hom check over the source closure: walk the source's
    Cayley graph, give each element the image of the first path to it,
    and require every other edge into it to agree."""
    src = hom.source
    images = {e.coords: None for e in src.closure()}
    images[src.identity.coords] = hom.target.identity
    queue = [src.identity]
    for e in queue:
        for g, x in src.generators.items():
            y, image = e * x, images[e.coords] * hom.image_of(g)
            if images[y.coords] is None:
                images[y.coords] = image
                queue.append(y)
            elif images[y.coords] != image:
                return False
    return True


def test_pc_matches_bfs_on_every_subgroup_the_commands_ask_for(
        monkeypatch, capsys):
    from pgog import amalgam, cli, gog, presentations, tower
    for cached in (tower.vertex_data, tower._edge_data, tower.build_level,
                   tower.build_graphs, amalgam._level_data):
        cached.cache_clear()    # so that every group is built, and asked, here
    asked, read = [], []
    subgroup = models.FiniteGroupModel.subgroup
    verify = presentations.GroupHom.verify
    image_order = presentations.GroupHom.image_order
    injective = presentations.hom_injective_on

    def recording(self, generators=None):
        asked.append((self, generators))
        return subgroup(self, generators)

    def verifying(hom):
        report = verify(hom)
        if isinstance(hom.source, models.FiniteGroupModel):
            read.append(("hom", hom, report["status"] == "pass"))
        return report

    def ordering(hom):
        read.append(("order", hom, image_order.fget(hom)))
        return read[-1][2]

    def injecting(hom):
        read.append(("injective", hom, injective(hom)))
        return read[-1][2]

    monkeypatch.setattr(models.FiniteGroupModel, "subgroup", recording)
    monkeypatch.setattr(presentations.GroupHom, "verify", verifying)
    monkeypatch.setattr(presentations.GroupHom, "image_order",
                        property(ordering))
    for module in (presentations, gog):
        monkeypatch.setattr(module, "hom_injective_on", injecting)
    for argv in (["run-all"], ["tower", "verify-all", "--p", "2",
                               "--max-level", "3"]):
        assert cli.main([*argv, "--json"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(asked) + len(read) > 100
    for m, gens in asked:
        assert_pc_matches_bfs(m, gens, list(m.generators.values()))
    # every hom reading, once per map: verdict, image order, injectivity
    verdicts = {}
    for kind, hom, value in read:
        if kind == "order":
            images = [hom.image_of(g) for g in hom.source.generators]
            assert value == len(hom.target.closure(images)), hom
            continue
        if hom not in verdicts:
            verdicts[hom] = extends_to_hom_by_bfs(hom)
        if kind == "hom":
            assert value == verdicts[hom], hom
        else:
            images = [hom.image_of(g) for g in hom.source.generators]
            assert value == (verdicts[hom] and len(hom.target.closure(
                images)) == len(hom.source.closure())), hom
    assert {kind for kind, _, _ in read} == {"hom", "order", "injective"}


# -- API surface --------------------------------------------------------------

def test_only_models_sifts():
    # the layout of a graph pcgs (a's depths first, b padded with its
    # identity, b's remainder inverted) is known to models.Pcgs alone: no
    # other module but the kernel sifts or builds an induced pcgs
    names = ("sift", "induced_pcgs")
    users = []
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        if path.name in ("_kernels_py.py", "models.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in names:
                users.append(f"{path.name}:{node.lineno}")
    assert users == []


def test_element_validation():
    m = models.GnModel(2, 1)
    with pytest.raises(ValueError, match="coordinates"):
        m.element((1, 0))
    e = m.element([1, 0, 1, 0])
    assert e.coords == (1, 0, 1, 0)


# such an element would read as not the identity, yet e * 1 == 1; and a
# compiled shift by an out-of-range t reads other lamps than the kernel
@pytest.mark.parametrize("m,coords", [
    (models.GnModel(2, 2), (2, 0, 0, 0, 0, 0)),
    (models.GnModel(2, 2), (0, 0, 0, 0, 0, -1)),
    (models.CyclicModel(2, 2), (-1,)),
    (models.CyclicModel(2, 2), (4,)),               # t is mod q = 4, not p
    (models.LamplighterLevel(2, 2), (0, 0, 0, 0, 4)),
    (models.ShiftedChainWitness(2, 1), (0, 0, 2, 0, 0, 0, 0)),
], ids=lambda v: getattr(v, "name", str(v)))
def test_element_refuses_coordinates_out_of_range(m, coords):
    with pytest.raises(ValueError, match="outside"):
        m.element(coords)
    top = [mod - 1 for mod in m.blocks.moduli]
    assert m.element(top).coords == tuple(top)


def test_cross_model_elements_rejected():
    a = models.GnModel(2, 1)
    b = models.LamplighterLevel(2, 1)
    with pytest.raises(ValueError, match="does not belong"):
        a.multiply(a.generators["k0"], b.generators["t"])
    with pytest.raises(ValueError, match="does not belong"):
        a.inverse(b.generators["t"])


def test_structural_equality_between_instances():
    a, b = models.GnModel(2, 2), models.GnModel(2, 2)
    assert a == b
    assert a.generators["k1"] == b.generators["k1"]
    # elements of a structurally equal twin are accepted
    assert a.multiply(a.generators["k1"], b.generators["h2"]) == \
        b.multiply(b.generators["k1"], a.generators["h2"])
    assert models.GnModel(2, 1) != models.FnModel(2, 1)


def test_models_with_other_generator_coordinates_do_not_alias():
    # one 2-coordinate EA layout, equal generator names, the coordinates
    # swapped: two different models, so no element of one equals one of
    # the other, not even the identity
    layout = [(kpy.EA, 2, 0, 0, 0, 2)]
    a = models.FiniteGroupModel("A", layout, [("x", (1, 0)), ("y", (0, 1))])
    b = models.FiniteGroupModel("B", layout, [("x", (0, 1)), ("y", (1, 0))])
    twin = models.FiniteGroupModel("C", layout,
                                   [("x", (1, 0)), ("y", (0, 1))])
    assert a != b and a == twin
    assert a.identity != b.identity and a.identity == twin.identity
    assert a.generators["x"] != b.generators["y"]
    assert a.generators["x"].coords == b.generators["y"].coords
    assert a.generators["x"] == twin.generators["x"]
    with pytest.raises(ValueError, match="does not belong"):
        a.multiply(a.generators["x"], b.generators["x"])


def test_power_and_negative_exponents():
    m = models.LamplighterLevel(2, 2)
    t = m.generators["t"]
    assert m.power(t, -1) == ~t
    assert m.power(t, 4).is_identity
    assert m.power(t, -3) == m.power(~t, 3)
    assert m.power(t, 0) == m.identity
    order = m.element_order(t)
    for k in range(-2 * order, 2 * order + 1):
        step = t if k >= 0 else ~t
        expected = m.identity
        for _ in range(abs(k)):
            expected = expected * step
        assert m.power(t, k) == expected, k


def test_word_for_round_trip():
    m = models.GnModel(2, 2)
    table = m.closure()
    lengths = []
    for e in table:
        w = table.word_for(e)
        assert m.evaluate(w) == e
        lengths.append(len(w))
    assert lengths == sorted(lengths)   # BFS produces shortest words
    assert not table.word_for(m.identity)   # empty word


def test_word_for_rejects_foreign_and_missing():
    m = models.GnModel(2, 2)
    table = m.closure(["h0", "h1"])
    assert len(table) == 4
    outside = m.generators["k1"]
    with pytest.raises(KeyError):
        table.word_for(outside)
    other = models.LamplighterLevel(2, 1)
    with pytest.raises(ValueError, match="different model"):
        table.word_for(other.generators["t"])


def test_closure_accepts_names_and_elements():
    m = models.LamplighterLevel(2, 2)
    by_name = m.closure(["h0", "t"])
    by_elem = m.closure([m.generators["h0"], m.generators["t"]])
    assert len(by_name) == len(by_elem) == m.order
    assert m.subgroup(["h0", "t"]).order == m.subgroup(
        [m.generators["h0"], m.generators["t"]]).order == m.order


def test_evaluate_with_assignment_and_missing_name():
    m = models.GnModel(2, 2)
    w = commutator(gen("a"), gen("b"))
    img = m.evaluate(w, {"a": m.generators["k1"], "b": m.generators["h2"]})
    assert img == m.generators["k2"]
    with pytest.raises(KeyError, match="no image"):
        m.evaluate(gen("zz"))


def fold(m, word, assignment):
    """The element-wise reference for evaluate: a product of powers."""
    result = m.identity
    for name, exp in word.syllables:
        result = m.multiply(result, m.power(assignment[name], exp))
    return result


@pytest.mark.parametrize("m", SMALL + [
    models.GnModel(3, 2), models.ChainWitness(2, 3),
    models.ShiftedChainWitness(2, 2), models.ShiftedChainWitness(3, 2)],
    ids=lambda m: m.name)
def test_evaluate_matches_a_fold_of_multiply_and_power(m):
    # evaluate works on coordinate tuples; the fold goes through elements
    rng = random.Random(m.name)
    names = list(m.generators)
    exponents = set()
    for assignment in (m.generators,
                       {n: random_element(m, rng) for n in names}):
        assert m.evaluate(Word(), assignment) == m.identity
        for _ in range(20):
            word = Word(tuple(
                (rng.choice(names),
                 rng.choice((-1, 1)) * rng.choice((1, 2, 3, m.p, 2 * m.p + 1)))
                for _ in range(rng.randint(1, 6))))
            exponents.update(exp for _, exp in word.syllables)
            expected = fold(m, word, assignment)
            assert m.evaluate(word, assignment) == expected, (m.name, word)
            assert m.evaluate(~word, assignment) == m.inverse(expected)
    assert min(exponents) < -1 and max(exponents) > 1


def test_evaluate_refuses_foreign_elements_and_missing_names():
    m, other = models.GnModel(2, 2), models.LamplighterLevel(2, 1)
    k1 = m.generators["k1"]
    for image in (other.generators["t"], k1.coords):
        with pytest.raises(ValueError, match="does not belong"):
            m.evaluate(gen("a") * gen("b", -2), {"a": k1, "b": image})
    with pytest.raises(KeyError, match="no image for generator b"):
        m.evaluate(gen("a", -1) * gen("b"), {"a": k1})


def test_evaluate_fills_its_inverse_table_on_first_use():
    m = models.GnModel(2, 2)
    assert m._inverses == {}
    assert m.evaluate(gen("k1") * gen("h0") ** 3) == \
        m.generators["k1"] * m.generators["h0"] ** 3
    assert m._inverses == {}
    word = gen("h1", -1) * gen("k2") * gen("h1", -2)
    assert m.evaluate(word) == fold(m, word, m.generators)
    assert list(m._inverses) == ["h1"]
    names = list(m.generators)
    for name in names * 2:
        assert m.evaluate(gen(name, -1)) == ~m.generators[name]
    assert list(m._inverses) == ["h1"] + [n for n in names if n != "h1"]
    # an assignment other than the generators reads no table
    m.evaluate(gen("a", -1), {"a": m.generators["k1"]})
    assert "a" not in m._inverses and len(m._inverses) == len(names)


@pytest.mark.parametrize("p,level", [(2, 3), (3, 2)])
def test_word_coords_equal_both_evaluate_paths(p, level):
    # every vertex model of the joined splitting; the explicit assignment
    # is a copy of the generators, so evaluate reads no table for it
    from pgog.tower import build_graphs
    gog = build_graphs(p, level, 0).joined
    rng = random.Random(f"word-coords/{p}/{level}")
    exponents = set()
    for v in gog.graph.vertices:
        m = gog.vertices[v].model
        names = list(m.generators)
        assignment = {g: m.generators[g] for g in names}
        for _ in range(40):
            drawn = [(rng.choice(names),
                      rng.choice((-1, 1)) * rng.randint(1, 5))
                     for _ in range(rng.randint(1, 6))]
            exponents.update(exp for _, exp in drawn)
            word = Word(tuple(drawn))
            coords = m.word_coords(word)
            assert coords == m.evaluate(word).coords, (v, word)
            assert coords == m.evaluate(word, assignment).coords, (v, word)
    assert exponents == set(range(-5, 0)) | set(range(1, 6))


def test_equal_models_keep_their_own_evaluate_tables():
    fn, gn = models.FnModel(2, 2), models.GnModel(2, 2)
    assert fn == gn
    assert fn.evaluate(gen("k1", -1)) == gn.inverse(gn.generators["k1"])
    assert list(fn._inverses) == ["k1"] and gn._inverses == {}
    assert fn._coords is not gn._coords


def test_a_one_letter_word_makes_no_product(monkeypatch):
    m = models.LamplighterLevel(2, 2)
    calls = {"mul": 0, "inv": 0}
    for op in calls:
        def counted(*args, op=op, real=getattr(kpy, op)):
            calls[op] += 1
            return real(*args)
        monkeypatch.setattr(kpy, op, counted)
    t = m.generators["t"]
    assert m.evaluate(gen("t")) == t
    assert m.evaluate(gen("t"), {"t": t}) == t
    assert calls == {"mul": 0, "inv": 0}
    assert m.evaluate(gen("t", -1)) == m.evaluate(gen("t", -1)) == ~t
    assert calls == {"mul": 0, "inv": 2}    # ~t above, and one table fill
    assert m.evaluate(gen("t") * gen("h0")) == t * m.generators["h0"]
    assert calls == {"mul": 2, "inv": 2}    # one product, and one above


def test_direct_product_orders_multiply_and_names_guarded():
    h = models.HeisenbergModP(2)
    ea = models.ElementaryAbelian(2, ["a", "b"])
    prod = models.DirectProduct(h, ea)
    assert prod.order == h.order * ea.order
    assert prod.commutator(prod.generators["x"], prod.generators["a"]).is_identity
    with pytest.raises(ValueError, match="collide"):
        models.DirectProduct(h, models.HeisenbergModP(2))
    with pytest.raises(ValueError, match="share the prime"):
        models.DirectProduct(h, models.ElementaryAbelian(3, ["q"]))


def test_stacked_twist_models_refuse_depth_three():
    with pytest.raises(ValueError, match="non-associative"):
        models.FnModel(2, 3)
    with pytest.raises(ValueError, match="non-associative"):
        models.EnWitnessModel(2, 3)


def test_prime_level_validation():
    with pytest.raises(ValueError, match="prime"):
        models.PrimeLevel(4)
    with pytest.raises(ValueError, match="prime"):
        models.PrimeLevel(1)
    with pytest.raises(ValueError, match="level n"):
        models.PrimeLevel(2, 0)
    with pytest.raises(ValueError, match="cap"):
        models.PrimeLevel(2, 21)
    # refused before p^n or a primality test is computed
    with pytest.raises(ValueError, match="cap"):
        models.PrimeLevel(3, 10 ** 9)
    with pytest.raises(ValueError, match="cap"):
        models.PrimeLevel(10 ** 18 + 3)
    lvl = models.PrimeLevel(3, 2)
    assert (lvl.p, lvl.n) == (3, 2)


def test_lamp_window_models_refuse_past_the_coordinate_budget():
    # 2^16 generators of 2^16 + 2 coordinates: refused before allocating
    with pytest.raises(ValueError, match="coordinate budget"):
        models.GnModel(2, 16)
    with pytest.raises(ValueError, match="coordinate budget"):
        models.LamplighterLevel(2, 11)
    assert models.GnModel(2, 10).width == 2 ** 10 + 2
