"""The parameterized tower: groups, retractions, path splittings, witnesses.

Level n of the tower owns four models: the lamp space (elementary abelian on
p^n lamps), the edge group (one extra carrier generator over the lamps), the
vertex group (two carrier layers, the upper defined by a commutator twist),
and the lamplighter level (lamps with a cyclic shift).  Levels are glued by
inclusions and by folding retractions that halve the lamp window; the path
splittings and the lamp-joined splittings are assembled from these, and the
explicit finite quotients witnessing their properness are built alongside:
path_witness_specialisation and joined_witness_specialisation each map one
splitting, which the specialisation names, and gog.certified certifies
it.  build_witnesses certifies both; a caller that reports one witness
certifies only that one.

Each vertex group G_i and edge group K_i has one cached constructor
(vertex_data, _edge_data), so a level, the splittings and the transition
tails share one model, and each inclusion K_i -> G_i, K_i -> G_{i+1},
H_n -> G_n and H_n -> W one GroupHom (gog.VertexData.edge_hom), however
many graphs certify it as an edge map.  build_level verifies the level's
two folds, the retraction square the two inclusions it composes with,
and the transition maps take their images from the level's vertex fold.

Infinite limit objects never appear: everything is a finite level plus
verified transition maps between consecutive levels.
"""

from collections import namedtuple
from functools import lru_cache

from . import models
from . import presentations as P
from . import reports
from .gog import (Graph, GraphOfGroups, Specialisation, VertexData,
                  certified, fp_naming, fundamental_presentation)
from .words import IDENTITY, Word, gen

# Entries each level builder below, and amalgam._level_data, keeps.  One
# command builds at one prime, and cache_info() after it reads at most
# one entry per level in each: 3..7 in every cache here after `tower
# verify-all --p 2 --max-level 3..7`, 5 after `tower build --p 2 --n 3
# --m 2` and `separate --p 2 ... --max-level 5`, whose build_graphs and
# _level_data hold 1.  The coordinate budget stops the commands that
# build witnesses at level 7 at p = 2 (SCW(2,8) would need 266 generators
# of 34,819 coordinates) and `tower build` at level 10 (K_11: 2,049 of
# 2,049), so no command evicts an entry it uses again.
LEVEL_CACHE = 10


def mu(p, n, k):
    """Fold an index into the level-n lamp window: k mod p^n."""
    if not 0 <= k < p ** (n + 1):
        raise ValueError(f"index {k} outside [0, {p ** (n + 1)})")
    return k % p ** n


def lamp_names(p, n):
    return [f"h{j}" for j in range(p ** n)]


def _verified(hom):
    report = hom.verify()
    if report["status"] != reports.PASS:
        raise ValueError(f"{hom!r} failed: "
                         f"{report['details']['violations']}")
    return hom


def _inclusion(vertex, source):
    """The edge map of source into vertex, each generator to the one of
    the same name, as a splitting certifies it (VertexData.edge_hom)."""
    return vertex.edge_hom(source, {g: gen(g) for g in source.generators})


class TowerLevel(namedtuple("TowerLevel", (
        "p", "n",
        "lamps",                # F_p-space on h_0 .. h_{p^n - 1}
        "edge_group",           # <k_n> x lamps
        "vertex_group",         # bottom: edge_group x <c>; higher: twisted
        "lamplighter",          # lamps with the cyclic shift t
        "lamp_fold",            # lamps -> level n-1 lamps (None at n=1)
        "vertex_fold",          # vertex_group -> level n-1 edge group
                                # (None at n=1)
        ))):
    """The four level-n models and the two folds onto level n-1, both
    verified by build_level.  No inclusion is kept: each is its target
    vertex's edge map, each generator to the one of the same name."""

    __slots__ = ()


def path_witness_model(p, n):
    """Finite quotient receiving the path splitting at level n.

    Depth one and two share the depth-two stacked-twist model (the bottom
    vertex's central factor needs an independent image, which the depth-one
    model is too small to offer); deeper levels use the square-zero monomial
    module, where arbitrarily long twist chains stay associative.
    """
    return models.FnModel(p, 2) if n <= 2 else models.ChainWitness(p, n)


def joined_witness_model(p, n):
    """Finite quotient receiving the lamp-joined splitting at level n."""
    if n <= 2:
        return models.EnWitnessModel(p, n)
    return models.ShiftedChainWitness(p, n)


def joined_witness_shape(p, n):
    """The shape of joined_witness_model(p, n), without building it."""
    return models.en_shape(p, n) if n <= 2 else models.scw_shape(p, n)


def check_budget(p, top, witnesses):
    """Refuse, before anything is built, levels 1..top whose models would
    exceed the coordinate budget: each level's lamps, edge group, vertex
    group and lamplighter and, with witnesses, the two witness targets,
    in the families that vertex_data, _edge_data, build_level and the
    witness models above pick, each read by its own shape function."""
    for n in range(1, top + 1):
        models.PrimeLevel(p, n)
        pn = p ** n
        shapes = [models.ea_shape(p, pn), models.ea_shape(p, 1 + pn),
                  models.ea_shape(p, p + 2) if n == 1 else models.gn_shape(p, n),
                  models.lamp_shape(p, n)]
        if witnesses:
            shapes.append(models.fn_shape(p, 2) if n <= 2
                          else models.cw_shape(p, n))
            shapes.append(joined_witness_shape(p, n))
        for shape in shapes:
            models.budget(*shape)


@lru_cache(maxsize=LEVEL_CACHE)
def vertex_data(p, i):
    """G_i with its presentation: elementary abelian on k1, the lamps and c
    at i = 1, the twisted group Gn(p, i) above."""
    if i == 1:
        names = ["k1"] + lamp_names(p, 1) + ["c"]
        return VertexData(
            models.ElementaryAbelian(p, names),
            P.elementary_abelian_presentation(p, names, name=f"G({p},1)"))
    return VertexData(models.GnModel(p, i), P.gn_presentation(p, i))


@lru_cache(maxsize=LEVEL_CACHE)
def _edge_data(p, i):
    """K_i = <k_i> x lamps with its elementary abelian presentation, the
    lone vertex of the (i, 0) tail."""
    names = [f"k{i}"] + lamp_names(p, i)
    return VertexData(
        models.ElementaryAbelian(p, names),
        P.elementary_abelian_presentation(p, names, name=f"K({p},{i})"))


@lru_cache(maxsize=LEVEL_CACHE)
def build_level(p, n):
    """Build level n, verifying its two folds as homs; level 1 has none."""
    models.PrimeLevel(p, n)
    lamps = models.ElementaryAbelian(p, lamp_names(p, n))
    edge_group = _edge_data(p, n).model
    vertex_group = vertex_data(p, n).model
    lamplighter = models.LamplighterLevel(p, n)

    lamp_fold = vertex_fold = None
    if n > 1:
        prev = build_level(p, n - 1)
        lamp_fold = _verified(
            P.GroupHom(lamps, prev.lamps,
                       {f"h{j}": prev.lamps.generators[f"h{mu(p, n - 1, j)}"]
                        for j in range(p ** n)},
                       name=f"H{n}->H{n - 1} fold"))
        fold_map = {f"k{n}": prev.edge_group.identity,
                    f"k{n - 1}": prev.edge_group.generators[f"k{n - 1}"]}
        for j in range(p ** n):
            fold_map[f"h{j}"] = prev.edge_group.generators[f"h{mu(p, n - 1, j)}"]
        vertex_fold = _verified(
            P.GroupHom(vertex_group, prev.edge_group, fold_map,
                       name=f"G{n}->K{n - 1} fold"))

    return TowerLevel(p, n, lamps, edge_group, vertex_group, lamplighter,
                      lamp_fold, vertex_fold)


def check_retraction_square(level):
    """On every lamp of the level, folding then including into the previous
    edge group must equal including into the vertex group then folding; and
    the level's vertex fold must fix the previous edge group pointwise.
    Returns the report check "retraction-square-n{n}".

    The two inclusions the square composes with, H_n -> G_n and
    K_{n-1} -> G_n, each generator to the one of the same name, are
    verified as homs here, the splittings' edge maps; a failed one
    raises ValueError.  To check another fold, pass a copy of the level
    that carries it: level._replace(vertex_fold=fold).
    """
    n = level.n
    if n < 2:
        raise ValueError("the square needs a previous level")
    prev = build_level(level.p, n - 1)
    fold = level.vertex_fold
    into_vertex = level.vertex_group.generators
    for source in (level.lamps, prev.edge_group):
        _verified(_inclusion(vertex_data(level.p, n), source))
    lamp_to_edge = _inclusion(_edge_data(level.p, n - 1), prev.lamps)
    violations = []
    for name in level.lamps.generators:
        low_road = lamp_to_edge.apply_element(level.lamp_fold.image_of(name))
        high_road = fold.apply_element(into_vertex[name])
        if low_road != high_road:
            violations.append({"kind": "square", "generator": name,
                               "via_lamp_fold": list(low_road.coords),
                               "via_vertex_fold": list(high_road.coords)})
    for name in prev.edge_group.generators:
        back = fold.apply_element(into_vertex[name])
        if back != prev.edge_group.generators[name]:
            violations.append({"kind": "retraction", "generator": name})
    return reports.check(f"retraction-square-n{n}", violations,
                         p=level.p, n=n)


# -- graphs ---------------------------------------------------------------------


def _gog(vertices, edges, edge_models):
    """Graph of groups on vertices (id -> VertexData) whose every edge
    group includes into both ends under its own generator names."""
    edge_maps = {eid: ({g: gen(g) for g in model.generators},) * 2
                 for eid, model in edge_models.items()}
    return GraphOfGroups(Graph(vertices, edges), vertices, edge_models,
                         edge_maps)


def _path_parts(p, first, last):
    vertices = {f"G{i}": vertex_data(p, i) for i in range(first, last + 1)}
    edges = {f"K{i}": (f"G{i}", f"G{i + 1}") for i in range(first, last)}
    edge_models = {f"K{i}": _edge_data(p, i).model for i in range(first, last)}
    return vertices, edges, edge_models


def _tail_gog(p, n, m):
    """The (n, m) tail: G_{n+1} .. G_{n+m} glued over the edge groups, or
    the lone edge group if m = 0.  The (0, n) tail is the path G_1 .. G_n."""
    if n == 0 and m == 0:
        raise ValueError("the (0, 0) tail has no level-0 edge group")
    if m == 0:
        return _gog({f"K{n}": _edge_data(p, n)}, {}, {})
    return _gog(*_path_parts(p, n + 1, n + m))


class TowerGraphs(namedtuple("TowerGraphs", (
        "p", "n", "m",
        "path",     # G_1 .. G_n
        "tail",     # G_{n+1} .. G_{n+m}; the edge group alone if m = 0
        "joined",   # G_1 .. G_{n+m} with the lamplighter joined
        ))):
    """The three splittings at parameters (p, n, m), as GraphOfGroups."""

    __slots__ = ()


@lru_cache(maxsize=LEVEL_CACHE)
def build_graphs(p, n, m=0):
    """Assemble the level-(n, m) splittings; certification runs on assembly."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    ell = n + m
    top = build_level(p, ell)
    path = _tail_gog(p, 0, n)
    tail = _tail_gog(p, n, m)
    vertices, edges, edge_models = _path_parts(p, 1, ell)
    vertices["W"] = VertexData(top.lamplighter,
                               P.lamplighter_presentation(p, ell))
    edges[f"H{ell}"] = (f"G{ell}", "W")
    edge_models[f"H{ell}"] = top.lamps
    return TowerGraphs(p, n, m, path, tail, _gog(vertices, edges, edge_models))


# -- witnesses -------------------------------------------------------------------


def _vertex_maps(gog, target, rename):
    """Send each vertex generator g to the target generator rename(g)."""
    return {v: {g: target.generators[rename(g)]
                for g in gog.vertices[v].model.generators}
            for v in gog.graph.vertices}


def path_witness_specialisation(p, levels):
    path = build_graphs(p, levels, 0).path
    target = path_witness_model(p, levels)
    central = "k2" if levels <= 2 else "c"
    maps = _vertex_maps(path, target, lambda g: central if g == "c" else g)
    return path, Specialisation(path, target, maps,
                                name=f"P{levels}->{target.name}")


def joined_witness_specialisation(p, levels):
    joined = build_graphs(p, levels, 0).joined
    target = joined_witness_model(p, levels)
    if levels <= 2:
        # En names its layers k{i}_{r}; c goes to the top layer's orbit 1
        def rename(g):
            if g == "c":
                return f"k{levels}_1"
            return f"{g}_0" if g.startswith("k") else g
    else:
        def rename(g):
            return g
    maps = _vertex_maps(joined, target, rename)
    return joined, Specialisation(joined, target, maps,
                                  name=f"J{levels}->{target.name}")


def build_witnesses(p, levels):
    """Certified properness witnesses for the path and joined splittings."""
    return (certified(path_witness_specialisation(p, levels)[1]),
            certified(joined_witness_specialisation(p, levels)[1]))


# -- transition maps -------------------------------------------------------------


def _substitute(word, images):
    """The image of word: each syllable's image word, repeated, in one
    Word that reduces it freely."""
    syllables = []
    for name, exp in word.syllables:
        image = images[name] if exp > 0 else ~images[name]
        syllables += image.syllables * abs(exp)
    return Word(syllables)


def _tails(p, n, m, steps):
    """The (n, m + steps) and (n, m) tails with their fp namings."""
    src = _tail_gog(p, n, m + steps)
    dst = _tail_gog(p, n, m)
    return src, dst, fp_naming(src), fp_naming(dst)


def _transition_images(p, n, m, src, src_names, dst_names):
    """Identity below the last vertex G_{n+m+1}, whose images are its
    level's vertex fold: each the empty word or the K-generator it equals
    (K is elementary abelian on its generators)."""
    last = f"G{n + m + 1}"
    fold = build_level(p, n + m + 1).vertex_fold
    dv = f"G{n + m}" if m else f"K{n}"
    k_names = {element: g for g, element in fold.target.generators.items()}
    images = {}
    for v in src.graph.vertices:
        for g in src.vertices[v].model.generators:
            if v != last:
                images[src_names[v][g]] = gen(dst_names[v][g])
                continue
            image = fold.image_of(g)
            images[src_names[v][g]] = (
                IDENTITY if image.is_identity
                else gen(dst_names[dv][k_names[image]]))
    return images


def transition_images(p, n, m):
    """Generator images of the fold from the (n, m+1) tail onto the (n, m)
    tail: identity on the first m vertices, the vertex fold on the last."""
    src, _, src_names, dst_names = _tails(p, n, m, 1)
    return _transition_images(p, n, m, src, src_names, dst_names)


def composed_transition_images(p, n, m):
    """Images of the double fold from the (n, m+2) tail onto the (n, m)
    tail, built by substituting one transition step into the next."""
    step_down = transition_images(p, n, m)
    step_up = transition_images(p, n, m + 1)
    return {name: _substitute(word, step_down)
            for name, word in step_up.items()}


def double_fold_images(p, n, m):
    """Images of the same double fold written directly: identity below the
    cut, both top shift generators killed, lamps folded modulo p^(n+m)."""
    src, _, src_names, dst_names = _tails(p, n, m, 2)
    cut = n + m
    dv = f"G{cut}" if m else f"K{n}"
    images = {}
    for v in src.graph.vertices:
        i = int(v[1:])
        for g in src.vertices[v].model.generators:
            if i <= cut:
                images[src_names[v][g]] = gen(dst_names[v][g])
            elif g.startswith("k") and int(g[1:]) > cut:
                images[src_names[v][g]] = IDENTITY
            elif g.startswith("k"):
                images[src_names[v][g]] = gen(dst_names[dv][g])
            else:
                # two levels of lamp folding at once; mu only spans one
                images[src_names[v][g]] = gen(
                    dst_names[dv][f"h{int(g[1:]) % p ** cut}"])
    return images


def check_transition_maps(p, n, m):
    """Certify the fold from the (n, m+1) tail onto the (n, m) tail.

    Image relators must vanish: literally (free reduction), or as elements
    of the single destination vertex group they land in.  The fold composed
    with the inclusion must fix the smaller tail's generators.  Returns
    the report check "transition-n{n}-m{m}".
    """
    src, dst, src_names, dst_names = _tails(p, n, m, 1)
    images = _transition_images(p, n, m, src, src_names, dst_names)
    src_fp = fundamental_presentation(src)
    dst_fp = fundamental_presentation(dst)
    dst_relators = {tuple(r.letters()) for r in dst_fp.relators}
    # fp generator name -> (vertex model, model generator name)
    owners = {qual: (dst.vertices[v].model, g)
              for v in dst.graph.vertices for g, qual in dst_names[v].items()}
    violations = []
    for relator in src_fp.relators:
        image = _substitute(relator, images)
        if not image or tuple(image.letters()) in dst_relators:
            continue
        homes = {owners[name][0] for name in image.names()}
        if len(homes) != 1:
            violations.append({"kind": "relator-spans-vertices",
                               "relator": repr(relator),
                               "image": repr(image)})
            continue
        model = homes.pop()
        assignment = {q: model.generators[owners[q][1]] for q in image.names()}
        value = model.evaluate(image, assignment)
        if not value.is_identity:
            violations.append({"kind": "relator-image", "relator": repr(relator),
                               "image": repr(image),
                               "value": list(value.coords)})
    # the fold composed with the inclusion must fix the smaller tail:
    # each of its vertex generators includes upward under its own name
    for v in dst.graph.vertices:
        src_vertex = v if m else f"G{n + 1}"
        for g in dst.vertices[v].model.generators:
            back = images[src_names[src_vertex][g]]
            if tuple(back.letters()) != ((dst_names[v][g], 1),):
                violations.append({"kind": "not-a-retraction",
                                   "vertex": v, "generator": g,
                                   "image": repr(back)})
    return reports.check(f"transition-n{n}-m{m}", violations, p=p, n=n, m=m)


def check_two_generation(p, n):
    """The lamplighter level is generated by one lamp and the shift: the
    report check "two-generation-n{n}", which compares the orders."""
    lamp = build_level(p, n).lamplighter
    pair = lamp.subgroup(["h0", "t"])
    return reports.make_check(
        f"two-generation-n{n}", reports.status(pair.order == lamp.order),
        p=p, n=n, subgroup_order=pair.order, model_order=lamp.order)
