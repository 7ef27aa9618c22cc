"""Kernel-level checks: group laws per block kind and BFS closure.

The group-law tests run on raw block descriptors through the kernel, so
a coordinate-law bug cannot hide behind the model layer.  The frozen
counterexamples pin down the fact that the stacked twist law stops being
a group at depth three; the models refuse those parameters, and these
tests make sure nobody "fixes" that refusal by reintroducing the law.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgog import _kernels_py as kpy
from pgog import models


def coordinate_moduli(blocks, width):
    """Modulus of each coordinate, recomputed here from the descriptors."""
    mods = [0] * width
    for kind, p, n, q, off, w in blocks:
        for i in range(off, off + w):
            mods[i] = p
        if kind in (kpy.CYC, kpy.LAMP, kpy.EN, kpy.MOD):
            mods[off + w - 1] = q
    assert all(m > 0 for m in mods)
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
    models.ChainWitness(2, 3),
    models.ChainWitness(2, 4),
    models.ChainWitness(3, 3),
    models.ShiftedChainWitness(2, 1),
    models.ShiftedChainWitness(2, 3),
    models.ShiftedChainWitness(3, 2),
    models.DirectProduct(models.HeisenbergModP(2),
                         models.ElementaryAbelian(2, ["d", "e"])),
]

# Raw descriptor sets the public constructors never emit, still legal for
# the kernel: a twist block whose lamp range is wider than p^n.
RAW_BLOCKS = [
    (((kpy.GN, 2, 2, 0, 0, 2 + 7),), 9),
    (((kpy.GN, 3, 1, 0, 0, 2 + 5),), 7),
    (((kpy.CYC, 2, 2, 4, 0, 1), (kpy.HEIS, 2, 0, 0, 1, 3)), 4),
]


def law_cases():
    cases = [pytest.param(m.blocks, m.width, id=m.name) for m in ZOO]
    cases += [pytest.param(blocks, width, id=f"raw{blocks[0][0]}w{width}")
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


def unit(width, *idx):
    c = [0] * width
    for i in idx:
        c[i] = 1
    return tuple(c)


def test_stacked_twist_depth3_is_not_a_group():
    # Three stacked layers: multiplying the bottom chain generator by the
    # two twist-index lamps associates differently, because the product
    # of the first two already carries a middle layer that the third
    # letter twists.  Any group model built on this law is inconsistent.
    blocks = ((kpy.FN, 2, 3, 0, 0, 11),)
    a = unit(11, 0)       # bottom chain generator
    b = unit(11, 3 + 2)   # lamp at the first twist index
    c = unit(11, 3 + 4)   # lamp at the second twist index
    lhs = kpy.mul(blocks, kpy.mul(blocks, a, b), c)
    rhs = kpy.mul(blocks, a, kpy.mul(blocks, b, c))
    assert lhs == (1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0)
    assert rhs == (1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0)
    assert lhs != rhs


def test_shifted_stacked_twist_depth3_is_not_a_group():
    # Same failure for the shift-closed variant, at orbit position 0.
    blocks = ((kpy.EN, 2, 3, 8, 0, 33),)
    a = unit(33, 0)        # bottom layer, orbit 0
    b = unit(33, 24 + 2)   # lamp at the first twist index
    c = unit(33, 24 + 4)   # lamp at the second twist index
    lhs = kpy.mul(blocks, kpy.mul(blocks, a, b), c)
    rhs = kpy.mul(blocks, a, kpy.mul(blocks, b, c))
    assert lhs != rhs
    assert lhs[16] == 1 and rhs[16] == 0   # the forced top-layer entry
    assert lhs[:16] == rhs[:16] and lhs[17:] == rhs[17:]


def test_unknown_block_kind_rejected():
    bad = ((99, 2, 0, 0, 0, 1),)
    with pytest.raises(ValueError, match="unknown block kind"):
        kpy.mul(bad, (0,), (0,))
    with pytest.raises(ValueError, match="unknown block kind"):
        kpy.inv(bad, (0,))


def closure_cases():
    """Whole models over the GN, LAMP, EN and MOD blocks, and one subgroup."""
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
    first = kpy.closure(m.blocks, m.identity.coords, gens, 1 << 16)
    second = kpy.closure(m.blocks, m.identity.coords, gens, 1 << 16)
    assert first == second
    elements, parent, genidx = first
    assert len(elements) == order
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


def test_closure_size_guard_raises():
    m = models.GnModel(2, 2)   # order 64
    gens = [e.coords for e in m.generators.values()]
    with pytest.raises(ValueError, match="size guard"):
        kpy.closure(m.blocks, m.identity.coords, gens, 10)

