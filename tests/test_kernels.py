"""Kernel-level checks: group laws and polycyclic series per block kind,
and BFS closure.

The group-law tests run on raw block layouts through the kernel, so a
coordinate-law bug cannot hide behind the model layer.  The frozen
counterexample pins down the fact that the shifted stacked twist law stops
being a group at depth three; the models refuse those parameters, and the
test makes sure nobody "fixes" that refusal by reintroducing the law.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgog import _kernels_py as kpy
from pgog import _laws
from pgog import models

import reference_elimination


def coordinate_moduli(blocks, width):
    """Modulus of each coordinate, as the layout reads it off its blocks."""
    mods = blocks.moduli
    assert len(mods) == width and all(m > 0 for m in mods)
    return mods


def random_coords(rng, mods):
    return tuple(rng.randrange(m) for m in mods)


# One entry per block kind, plus multi-block composites.
ZOO = [
    models.ElementaryAbelian(3, ["a", "b", "c"]),
    models.CyclicModel(2, 3),
    models.CyclicModel(5, 2),
    models.HeisenbergModP(2),
    models.HeisenbergModP(3),
    models.GnModel(2, 2),
    models.GnModel(2, 3),
    models.GnModel(3, 2),
    models.FnModel(2, 1),
    models.FnModel(2, 2),
    models.FnModel(3, 2),
    models.LamplighterLevel(2, 2),
    models.LamplighterLevel(3, 1),
    models.EnWitnessModel(2, 2),
    models.EnWitnessModel(3, 1),
    models.EnWitnessModel(3, 2),
    models.ChainWitness(2, 3),
    models.ChainWitness(2, 4),
    models.ChainWitness(3, 3),
    models.ShiftedChainWitness(2, 1),
    models.ShiftedChainWitness(2, 3),
    models.ShiftedChainWitness(3, 2),
    models.DirectProduct(models.HeisenbergModP(2),
                         models.ElementaryAbelian(2, ["d", "e"])),
]

# Raw layouts the public constructors never emit, still legal for the
# kernel: twisted EA blocks with more lamps than the Gn whose twist they
# share (Gn(2,2), Gn(3,1)), and lampless (cyclic) LAMP blocks next to a
# Heisenberg block and to a lamplighter block at a nonzero offset.
RAW_BLOCKS = [
    (((kpy.EA, 2, 4, 0, 0, 2 + 7),), 9),
    (((kpy.EA, 3, 3, 0, 0, 2 + 5),), 7),
    (((kpy.LAMP, 2, 0, 4, 0, 1), (kpy.EA, 2, 2, 0, 1, 3)), 4),
    (((kpy.LAMP, 3, 0, 9, 0, 1), (kpy.LAMP, 3, 0, 3, 1, 4)), 5),
]


def law_cases():
    cases = [pytest.param(m.blocks, m.width, id=m.name) for m in ZOO]
    cases += [pytest.param(kpy.Layout(blocks), width,
                           id=f"raw{blocks[0][0]}w{width}")
              for blocks, width in RAW_BLOCKS]
    return cases


@pytest.mark.parametrize("blocks,width", law_cases())
def test_group_laws_fixed_seed(blocks, width):
    mods = coordinate_moduli(blocks, width)
    e = (0,) * width
    rng = random.Random(20240311)
    for _ in range(200):
        a = random_coords(rng, mods)
        b = random_coords(rng, mods)
        c = random_coords(rng, mods)
        ab = kpy.mul(blocks, a, b)
        bc = kpy.mul(blocks, b, c)
        assert kpy.mul(blocks, ab, c) == kpy.mul(blocks, a, bc)
        ia = kpy.inv(blocks, a)
        assert kpy.mul(blocks, a, ia) == e
        assert kpy.mul(blocks, ia, a) == e
        assert kpy.inv(blocks, ia) == a
        assert kpy.mul(blocks, a, e) == a
        assert kpy.mul(blocks, e, a) == a


@st.composite
def zoo_triples(draw):
    m = draw(st.sampled_from(ZOO))
    mods = coordinate_moduli(m.blocks, m.width)
    coords = st.tuples(*[st.integers(0, mod - 1) for mod in mods])
    return m.blocks, draw(coords), draw(coords), draw(coords)


@settings(max_examples=80, deadline=None)
@given(zoo_triples())
def test_group_laws_property(triple):
    blocks, a, b, c = triple
    lhs = kpy.mul(blocks, kpy.mul(blocks, a, b), c)
    rhs = kpy.mul(blocks, a, kpy.mul(blocks, b, c))
    assert lhs == rhs
    e = (0,) * len(a)
    assert kpy.mul(blocks, a, kpy.inv(blocks, a)) == e


def mod_mul_reference(blocks, a, b):
    """kpy.mul with every MOD row worked out, zero or not: the multipliers
    of a at orbit r act on b's row shifted by a's t, then a's row adds."""
    out = list(kpy.mul(blocks, a, b))
    for kind, p, n, q, off, width in blocks:
        if kind != kpy.MOD:
            continue
        dim, a0, t = 1 << n, off + q * (1 << n), a[off + width - 1]
        for r in range(q):
            tmp = list(b[off + (r + t) % q * dim:][:dim])
            for v in range(n):
                coef = a[a0 + v * q + r]
                for s in range(dim):
                    if s >> v & 1:
                        tmp[s] = (tmp[s] + coef * tmp[s ^ 1 << v]) % p
            for s in range(dim):
                out[off + r * dim + s] = (a[off + r * dim + s] + tmp[s]) % p
    return tuple(out)


def sparse_coords(rng, mods, density):
    return tuple(rng.randrange(m) if rng.random() < density else 0
                 for m in mods)


@pytest.mark.parametrize("m", [models.ShiftedChainWitness(2, 3),
                               models.ShiftedChainWitness(3, 2),
                               models.ChainWitness(2, 4)],
                         ids=lambda m: m.name)
def test_mod_mul_skips_zero_rows_exactly(m):
    mods = coordinate_moduli(m.blocks, m.width)
    (kind, _, n, q, off, _), *_ = m.blocks
    assert kind == kpy.MOD
    dim = 1 << n
    rng = random.Random(m.name)
    zero_rows = 0
    for trial in range(300):
        a, b = (sparse_coords(rng, mods, (0.05, 0.3, 1.0)[trial % 3])
                for _ in range(2))
        zero_rows += sum(not any(b[off + r * dim:][:dim]) for r in range(q))
        ab = kpy.mul(m.blocks, a, b)
        assert ab == mod_mul_reference(m.blocks, a, b)
        assert kpy.inv(m.blocks, ab) == kpy.mul(
            m.blocks, kpy.inv(m.blocks, b), kpy.inv(m.blocks, a))
    assert zero_rows > 100      # the skip is taken, and often


# -- polycyclic series ----------------------------------------------------------


KIND_NAMES = {kpy.EA: "EA", kpy.LAMP: "LAMP", kpy.MOD: "MOD"}


def test_every_block_kind_has_a_series_case():
    covered = {b[0] for case in law_cases() for b in case.values[0]}
    assert covered == set(KIND_NAMES)


@pytest.mark.parametrize("blocks,width", law_cases())
def test_series_splits_every_coordinate_into_digits_once(blocks, width):
    # so p^(series length) is the number of coordinate tuples
    terms = blocks.series
    assert len(set(terms)) == len(terms)
    assert blocks[0][1] ** len(terms) == math.prod(
        coordinate_moduli(blocks, width))


def ones(start, stop):
    return [(c, 1) for c in range(start, stop)]


SHIFT_BLOCK_CASES = [
    (models.CyclicModel(2, 3), [(0, 1), (0, 2), (0, 4)], [(0, 1, 1, 1)]),
    (models.LamplighterLevel(2, 2), [(4, 1), (4, 2), *ones(0, 4)],
     [(0, 5, 4, 5)]),
    # (t, u_1, lamps, u_2) over u_1 = 0..3, u_2 = 4..7, lamps 8..11
    (models.EnWitnessModel(2, 2),
     [(12, 1), (12, 2), *ones(0, 4), *ones(8, 12), *ones(4, 8)],
     [(0, 13, 0, 13)]),
    # MOD (module 0..7, multipliers 8..11, t 12), Lamp(2,2) at 13, EA at 18
    (models.ShiftedChainWitness(2, 2),
     [(12, 1), (12, 2), *ones(8, 12), *ones(0, 8),
      (17, 1), (17, 2), *ones(13, 17), (18, 1)],
     [(0, 13, 8, 13), (13, 18, 17, 18), (18, 19, 19, 19)]),
]


@pytest.mark.parametrize("m,series,acting", SHIFT_BLOCK_CASES,
                         ids=[case[0].name for case in SHIFT_BLOCK_CASES])
def test_series_and_acting_of_the_shift_blocks(m, series, acting):
    # canonical representatives, and so report bytes, follow the series
    # order; the elimination's skips follow the acting spans
    assert m.blocks.series == series
    assert m.blocks.acting == acting


TWIST_BLOCK_CASES = [
    # (a, [a,b], b): digits a, b, [a,b]
    (models.HeisenbergModP(2), [(0, 1), (2, 1), (1, 1)], [(0, 3, 0, 1)]),
    # (u_1, u_2, lamps 2..5) twisted by u_1 * y_2, coordinate 4
    (models.GnModel(2, 2), [(0, 1), *ones(2, 6), (1, 1)], [(0, 6, 0, 1)]),
    (models.FnModel(2, 2), [(0, 1), *ones(2, 6), (1, 1)], [(0, 6, 0, 1)]),
    (models.FnModel(2, 1), ones(0, 3), [(0, 3, 3, 3)]),
    # a Heisenberg block at 2..4 after an untwisted one at 0..1
    (models.DirectProduct(models.ElementaryAbelian(2, ["d", "e"]),
                          models.HeisenbergModP(2)),
     [(0, 1), (1, 1), (2, 1), (4, 1), (3, 1)],
     [(0, 2, 2, 2), (2, 5, 2, 3)]),
]


@pytest.mark.parametrize("m,series,acting", TWIST_BLOCK_CASES,
                         ids=[case[0].name for case in TWIST_BLOCK_CASES])
def test_series_and_acting_of_the_twisted_blocks(m, series, acting):
    # the twisting u first and the twisted coordinate last: report bytes
    # follow this digit order
    assert m.blocks.series == series
    assert m.blocks.acting == acting


def digit(terms, p, x, depth):
    c, place = terms[depth]
    return x[c] // place % p


@pytest.mark.parametrize("blocks,width", law_cases())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_series_leading_digit_adds_mod_p(blocks, width, data):
    # the elements zero above depth k form a subgroup, and left-multiplying
    # any b by one of them keeps b's digits above k and adds at k mod p:
    # the factor there has order p, and a sift that clears depth k leaves
    # the depths above it alone
    p, terms = blocks[0][1], blocks.series
    mods = coordinate_moduli(blocks, width)
    k = data.draw(st.integers(0, len(terms) - 1), label="depth")

    def draw():
        return data.draw(st.tuples(*[st.integers(0, m - 1) for m in mods]))

    a, b = list(draw()), draw()
    for c, place in terms[:k]:
        a[c] -= a[c] // place % p * place
    a = tuple(a)
    ab, ia = kpy.mul(blocks, a, b), kpy.inv(blocks, a)
    assert all(digit(terms, p, ab, d) == digit(terms, p, b, d)
               for d in range(k))
    assert all(digit(terms, p, ia, d) == 0 for d in range(k))
    assert digit(terms, p, ab, k) == \
        (digit(terms, p, a, k) + digit(terms, p, b, k)) % p
    assert digit(terms, p, ia, k) == -digit(terms, p, a, k) % p


def unit(width, *idx):
    c = [0] * width
    for i in idx:
        c[i] = 1
    return tuple(c)


def test_shifted_stacked_twist_depth3_is_not_a_group():
    # Three stacked layers: multiplying the bottom layer at orbit position
    # 0 by the two twist-index lamps associates differently, because the
    # product of the first two already carries a middle layer that the
    # third letter twists.  Any group model built on this law is
    # inconsistent.
    blocks = kpy.Layout(((kpy.LAMP, 2, 3, 8, 0, 33),))
    a = unit(33, 0)        # bottom layer, orbit 0
    b = unit(33, 24 + 2)   # lamp at the first twist index
    c = unit(33, 24 + 4)   # lamp at the second twist index
    lhs = kpy.mul(blocks, kpy.mul(blocks, a, b), c)
    rhs = kpy.mul(blocks, a, kpy.mul(blocks, b, c))
    assert lhs != rhs
    assert lhs[16] == 1 and rhs[16] == 0   # the forced top-layer entry
    assert lhs[:16] == rhs[:16] and lhs[17:] == rhs[17:]


def test_unknown_block_kind_rejected(monkeypatch):
    bad = kpy.Layout(((99, 2, 0, 0, 0, 1),))
    with pytest.raises(ValueError, match="unknown block kind"):
        kpy.mul(bad, (0,), (0,))
    with pytest.raises(ValueError, match="unknown block kind"):
        kpy.inv(bad, (0,))
    with pytest.raises(ValueError, match="unknown block kind"):
        bad.series
    with pytest.raises(ValueError, match="unknown block kind"):
        bad.acting
    with pytest.raises(ValueError, match="unknown block kind 99"):
        _laws.compile_laws(bad)
    # a layout's hot call hands it to the generator, which refuses it too
    monkeypatch.setattr(kpy, "HOT_CALLS", bad.calls + 1)
    with pytest.raises(ValueError, match="unknown block kind 99"):
        kpy.mul(bad, (0,), (0,))
    assert bad.mul_law is None and bad.inv_law is None


# -- compiled laws --------------------------------------------------------------


def interpreted(blocks, mp):
    """A fresh copy of the layout, with no law yet, and a kernel that never
    compiles one: mul and inv on the copy run the interpreted loop, even
    when an earlier test has compiled the original."""
    mp.setattr(kpy, "HOT_CALLS", -1)
    return kpy.Layout(blocks)


def assert_still_interpreted(cold):
    assert cold.mul_law is None and cold.inv_law is None


def compiled_cases():
    return [case for case in law_cases()
            if all(b[0] != kpy.MOD for b in case.values[0])]


@pytest.mark.parametrize("blocks,width", compiled_cases())
def test_compiled_law_equals_the_interpreted_one(blocks, width, monkeypatch):
    cold = interpreted(blocks, monkeypatch)
    mul, inv = _laws.compile_laws(blocks)
    mods = coordinate_moduli(blocks, width)
    rng = random.Random(f"laws/{tuple(blocks)}")
    for _ in range(300):
        a, b = random_coords(rng, mods), random_coords(rng, mods)
        assert mul(a, b) == kpy.mul(cold, a, b)
        assert inv(a) == kpy.inv(cold, a)
    assert_still_interpreted(cold)
    e = (0,) * width
    assert mul(e, e) == inv(e) == e
    assert all(type(c) is int for c in mul(a, b) + inv(a))


@st.composite
def compiled_pairs(draw):
    case = draw(st.sampled_from(compiled_cases()))
    blocks, width = case.values
    coords = st.tuples(*[st.integers(0, m - 1)
                         for m in coordinate_moduli(blocks, width)])
    return blocks, draw(coords), draw(coords)


@settings(max_examples=150, deadline=None)
@given(compiled_pairs())
def test_compiled_law_property(pair):
    blocks, a, b = pair
    mul, inv = _laws.compile_laws(blocks)
    with pytest.MonkeyPatch.context() as mp:
        cold = interpreted(blocks, mp)
        assert mul(a, b) == kpy.mul(cold, a, b)
        assert inv(a) == kpy.inv(cold, a)
        assert_still_interpreted(cold)


def test_a_layout_compiles_at_its_hot_call():
    m = models.EnWitnessModel(2, 2)
    layout = m.blocks
    mods = coordinate_moduli(layout, m.width)
    rng = random.Random(2048)
    inputs = [(random_coords(rng, mods), random_coords(rng, mods))
              for _ in range(kpy.HOT_CALLS // 2)]
    before = []
    for i, (a, b) in enumerate(inputs):
        assert layout.mul_law is None
        before.append(kpy.mul(layout, a, b))
        assert layout.calls == 2 * i + 1
        before.append(kpy.inv(layout, a))
    assert layout.calls == kpy.HOT_CALLS        # the last call compiled
    assert layout.mul_law is not None and layout.inv_law is not None
    after = []
    for a, b in inputs:
        after += [kpy.mul(layout, a, b), kpy.inv(layout, a)]
    assert after == before
    assert layout.calls == kpy.HOT_CALLS        # compiled calls go uncounted


def test_a_module_layout_never_compiles():
    m = models.ShiftedChainWitness(2, 1)
    a, b = m.generators["h1"].coords, m.generators["t"].coords
    for _ in range(kpy.HOT_CALLS + 10):
        assert kpy.inv(m.blocks, kpy.mul(m.blocks, a, b)) == kpy.mul(
            m.blocks, kpy.inv(m.blocks, b), kpy.inv(m.blocks, a))
    assert m.blocks.mul_law is None and m.blocks.inv_law is None
    assert m.blocks.calls > kpy.HOT_CALLS


def test_a_layout_object_keeps_its_own_law(monkeypatch):
    monkeypatch.setattr(kpy, "HOT_CALLS", 3)
    blocks = ((kpy.EA, 3, 0, 0, 0, 2),)
    layout, twin = kpy.Layout(blocks), kpy.Layout(blocks)
    assert layout == twin == blocks and hash(layout) == hash(blocks)
    a = (1, 2)
    for call in range(1, 4):                    # the third call compiles
        assert layout.mul_law is None
        assert kpy.mul(layout, a, a) == (2, 1)
        assert layout.calls == call
    assert layout.mul_law is not None and layout.inv_law is not None
    assert kpy.inv(layout, a) == (2, 1) and layout.calls == 3
    # a value-equal layout made separately counts on its own, still cold
    assert twin.calls == 0 and twin.mul_law is None
    assert kpy.inv(twin, a) == (2, 1) and twin.calls == 1
    # and the kernel keeps no law table of its own
    assert not [name for name, value in vars(kpy).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set))]


def closure_cases():
    """Whole models over the twisted EA, LAMP (with and without layers) and
    MOD blocks, and one subgroup."""
    cases = [pytest.param(m, list(m.generators), order, id=m.name)
             for m, order in [(models.GnModel(2, 2), 64),
                              (models.LamplighterLevel(2, 2), 64),
                              (models.EnWitnessModel(2, 1), 32),
                              (models.ShiftedChainWitness(2, 1), 64)]]
    # the widest witness in the suite: 59 coordinates, 2^63 coordinate tuples
    cases.append(pytest.param(models.ShiftedChainWitness(2, 3), ["k1", "c"],
                              4, id="SCW(2,3)<k1,c>"))
    return cases


@pytest.mark.parametrize("m,names,order", closure_cases())
def test_closure_is_deterministic_and_bfs(m, names, order):
    gens = [m.generators[g].coords for g in names]
    first = kpy.closure(m.blocks, m.identity.coords, gens)
    second = kpy.closure(m.blocks, m.identity.coords, gens)
    assert first == second
    elements, index, parent, genidx = first
    assert len(elements) == order
    assert index == {e: i for i, e in enumerate(elements)}
    assert elements[0] == m.identity.coords
    assert parent[0] == -1 and genidx[0] == -1
    assert len(set(elements)) == len(elements)

    def depth(i):
        d = 0
        while i > 0:
            i = parent[i]
            d += 1
        return d

    depths = [depth(i) for i in range(len(elements))]
    assert depths == sorted(depths)
    for i in range(1, len(elements)):
        assert elements[i] == kpy.mul(m.blocks, elements[parent[i]],
                                      gens[genidx[i]])


# -- elimination shortcuts -----------------------------------------------------


@pytest.mark.parametrize("blocks,width", law_cases())
def test_acting_coordinates_bound_an_abelian_subgroup(blocks, width):
    # per block, the elements zero outside the block and at its acting
    # coordinates are closed under products and commute: what lets the
    # elimination skip a pair of entries without forming gh and hg
    rng = random.Random(width)
    mods = coordinate_moduli(blocks, width)
    assert len(blocks.acting) == len(blocks)
    for (*_, off, w), (start, end, a0, a1) in zip(blocks, blocks.acting):
        assert (start, end) == (off, off + w) and start <= a0 <= a1 <= end

        def draw():
            return tuple(rng.randrange(m) if start <= i < end
                         and not a0 <= i < a1 else 0
                         for i, m in enumerate(mods))

        for _ in range(20):
            a, b = draw(), draw()
            ab = kpy.mul(blocks, a, b)
            assert ab == kpy.mul(blocks, b, a)
            assert not any(ab[a0:a1]) and not any(ab[:start] + ab[end:])


def assert_same_table(layout, gens):
    assert kpy.induced_pcgs(layout, gens) == \
        reference_elimination.induced_pcgs(layout, gens), (layout, gens)


@pytest.mark.parametrize("m", ZOO, ids=lambda m: m.name)
def test_the_elimination_matches_the_unskipped_one(m):
    # the whole model, and random subgroups: of a few generators, of
    # random elements and of sparse ones, whose entries share few blocks
    rng = random.Random(m.name)
    mods = m.blocks.moduli
    names = list(m.generators)
    assert_same_table(m.blocks, [m.generators[g].coords for g in names])
    for _ in range(6):
        picked = rng.sample(names, rng.randint(1, min(3, len(names))))
        assert_same_table(m.blocks, [m.generators[g].coords for g in picked])
        assert_same_table(m.blocks, [random_coords(rng, mods)
                                     for _ in range(rng.randint(1, 3))])
        assert_same_table(m.blocks, [sparse_coords(rng, mods, 0.1)
                                     for _ in range(rng.randint(1, 4))])


@pytest.mark.parametrize("p,top", [(2, 4), (3, 3)])
def test_the_elimination_matches_the_unskipped_one_on_every_tower_pcgs(
        p, top, monkeypatch, capsys):
    # every induced pcgs `tower verify-all` builds, the witness maps'
    # graph pcgs in target x source among them
    from pgog import cli, tower
    for cached in (tower.vertex_data, tower._edge_data, tower.build_level,
                   tower.build_graphs):
        cached.cache_clear()    # so that every pcgs is built here
    built = []
    eliminate = kpy.induced_pcgs

    def recording(layout, gens):
        built.append((layout, list(gens), eliminate(layout, gens)))
        return built[-1][2]

    monkeypatch.setattr(kpy, "induced_pcgs", recording)
    assert cli.main(["tower", "verify-all", "--p", str(p), "--max-level",
                     str(top), "--json"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(built) > 20
    assert any(len(layout) > 1 for layout, _, _ in built)
    for layout, gens, table in built:
        assert table == reference_elimination.induced_pcgs(layout, gens)
