"""The parameterized tower: groups, retractions, path splittings, witnesses.

Level n of the tower owns four models: the lamp space (elementary abelian on
p^n lamps), the edge group (one extra carrier generator over the lamps), the
vertex group (two carrier layers, the upper defined by a commutator twist),
and the lamplighter level (lamps with a cyclic shift).  Levels are glued by
inclusions and by folding retractions that halve the lamp window; the path
splittings and the lamp-joined splittings are assembled from these, and the
explicit finite quotients witnessing their properness are built alongside.

Infinite limit objects never appear: everything is a finite level plus
verified transition maps between consecutive levels.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import models
from . import presentations as P
from .gog import (EdgeData, Graph, GraphOfGroups, Specialisation, VertexData,
                  fp_naming, fundamental_presentation,
                  verify_properness_witness)
from .words import IDENTITY, gen


def mu(p, n, k):
    """Fold an index into the level-n lamp window: k mod p^n."""
    if not 0 <= k < p ** (n + 1):
        raise ValueError(f"index {k} outside [0, {p ** (n + 1)})")
    return k % p ** n


def lamp_names(p, n):
    return [f"h{j}" for j in range(p ** n)]


def _ea(p, names):
    return models.ElementaryAbelian(p, names)


def _verified(hom, presentation):
    report = hom.verify(presentation)
    if report["status"] != "pass":
        raise ValueError(f"{hom.name or 'hom'} failed: {report['violations']}")
    return hom


def _injective(hom, presentation):
    _verified(hom, presentation)
    if not P.hom_injective_on(hom):
        raise ValueError(f"{hom.name or 'hom'} is not injective")
    return hom


def _name_hom(source, target, name=""):
    mapping = {g: target.generators[g] for g in source.generators}
    return P.GroupHom(source, target, mapping, name=name)


@dataclass(frozen=True)
class TowerLevel:
    """All level-n models plus the homs tying them to level n-1."""

    p: int
    n: int
    lamps: object             # F_p-space on h_0 .. h_{p^n - 1}
    edge_group: object        # <k_n> x lamps
    vertex_group: object      # bottom: edge_group x <c>; higher: twisted
    lamplighter: object       # lamps with the cyclic shift t
    lamp_incl: object         # level n-1 lamps -> lamps        (None at n=1)
    lamp_fold: object         # lamps -> level n-1 lamps        (None at n=1)
    edge_incl_prev: object    # level n-1 edge group -> vertex_group (None at n=1)
    edge_incl: object         # edge_group -> vertex_group
    lamp_to_vertex: object    # lamps -> vertex_group
    vertex_fold: object       # vertex_group -> level n-1 edge group (None at n=1)


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


@lru_cache(maxsize=None)
def build_level(p, n):
    """Build level n, verifying every hom and every inclusion's injectivity."""
    models.PrimeLevel(p, n)
    if n < 1:
        raise ValueError("levels start at 1")
    hs = lamp_names(p, n)
    lamps = _ea(p, hs)
    edge_group = _ea(p, [f"k{n}"] + hs)
    if n == 1:
        vertex_group = _ea(p, ["k1"] + hs + ["c"])
        vertex_pres = P.elementary_abelian_presentation(
            p, ["k1"] + hs + ["c"], name=f"G({p},1)")
    else:
        vertex_group = models.GnModel(p, n)
        vertex_pres = P.gn_presentation(p, n)
    lamp_pres = P.elementary_abelian_presentation(p, hs)
    edge_pres = P.elementary_abelian_presentation(p, [f"k{n}"] + hs)

    edge_incl = _injective(
        _name_hom(edge_group, vertex_group, f"K{n}->G{n}"), edge_pres)
    lamp_to_vertex = _injective(
        _name_hom(lamps, vertex_group, f"H{n}->G{n}"), lamp_pres)

    lamp_incl = lamp_fold = edge_incl_prev = vertex_fold = None
    if n > 1:
        prev = build_level(p, n - 1)
        prev_hs = lamp_names(p, n - 1)
        prev_lamp_pres = P.elementary_abelian_presentation(p, prev_hs)
        lamp_incl = _injective(
            _name_hom(prev.lamps, lamps, f"H{n - 1}->H{n}"), prev_lamp_pres)
        lamp_fold = _verified(
            P.GroupHom(lamps, prev.lamps,
                       {f"h{j}": prev.lamps.generators[f"h{mu(p, n - 1, j)}"]
                        for j in range(p ** n)},
                       name=f"H{n}->H{n - 1} fold"),
            lamp_pres)
        prev_edge_pres = P.elementary_abelian_presentation(
            p, [f"k{n - 1}"] + prev_hs)
        edge_incl_prev = _injective(
            _name_hom(prev.edge_group, vertex_group, f"K{n - 1}->G{n}"),
            prev_edge_pres)
        fold_map = {f"k{n}": prev.edge_group.identity,
                    f"k{n - 1}": prev.edge_group.generators[f"k{n - 1}"]}
        for j in range(p ** n):
            fold_map[f"h{j}"] = prev.edge_group.generators[f"h{mu(p, n - 1, j)}"]
        vertex_fold = _verified(
            P.GroupHom(vertex_group, prev.edge_group, fold_map,
                       name=f"G{n}->K{n - 1} fold"),
            vertex_pres)

    return TowerLevel(
        p, n, lamps, edge_group, vertex_group,
        models.LamplighterLevel(p, n), lamp_incl, lamp_fold, edge_incl_prev,
        edge_incl, lamp_to_vertex, vertex_fold)


def check_retraction_square(level):
    """On every lamp of the level, folding then including into the previous
    edge group must equal including into the vertex group then folding; and
    the level's vertex fold must fix the previous edge group pointwise.

    To check another fold, pass a copy of the level that carries it:
    dataclasses.replace(level, vertex_fold=fold).
    """
    if level.n < 2:
        raise ValueError("the square needs a previous level")
    prev = build_level(level.p, level.n - 1)
    fold = level.vertex_fold
    lamp_to_edge = _name_hom(prev.lamps, prev.edge_group, "H->K")
    violations = []
    for name in level.lamps.generators:
        low_road = lamp_to_edge.apply_element(level.lamp_fold.image_of(name))
        high_road = fold.apply_element(level.lamp_to_vertex.image_of(name))
        if low_road != high_road:
            violations.append({"kind": "square", "generator": name,
                               "via_lamp_fold": list(low_road.coords),
                               "via_vertex_fold": list(high_road.coords)})
    for name in prev.edge_group.generators:
        back = fold.apply_element(level.edge_incl_prev.image_of(name))
        if back != prev.edge_group.generators[name]:
            violations.append({"kind": "retraction", "generator": name})
    return {"check": "retraction-square", "p": level.p, "n": level.n,
            "status": "pass" if not violations else "fail",
            "violations": violations}


# -- graphs ---------------------------------------------------------------------


def _vertex_data(p, i):
    if i == 1:
        names = ["k1"] + lamp_names(p, 1) + ["c"]
        return VertexData(
            _ea(p, names),
            P.elementary_abelian_presentation(p, names, name=f"G({p},1)"))
    return VertexData(models.GnModel(p, i), P.gn_presentation(p, i))


def _word_map(names):
    return {g: gen(g) for g in names}


def _path_gog(p, first, last, check=True):
    """Path of vertex groups G_first .. G_last glued over the edge groups."""
    vertices, data = [], {}
    for i in range(first, last + 1):
        vertices.append(f"G{i}")
        data[f"G{i}"] = _vertex_data(p, i)
    edges, edge_data, edge_maps = {}, {}, {}
    for i in range(first, last):
        eid = f"K{i}"
        edges[eid] = (f"G{i}", f"G{i + 1}")
        names = [f"k{i}"] + lamp_names(p, i)
        edge_data[eid] = EdgeData(
            _ea(p, names), P.elementary_abelian_presentation(p, names))
        edge_maps[eid] = (_word_map(names), _word_map(names))
    return GraphOfGroups(Graph(vertices, edges), data, edge_data, edge_maps,
                         check=check)


def _tail_gog(p, n, m, check=True):
    """The (n, m) tail: G_{n+1} .. G_{n+m}, or the lone edge group if m = 0."""
    if n == 0 and m == 0:
        raise ValueError("the (0, 0) tail has no level-0 edge group")
    if m == 0:
        names = [f"k{n}"] + lamp_names(p, n)
        data = VertexData(
            _ea(p, names),
            P.elementary_abelian_presentation(p, names, name=f"K({p},{n})"))
        return GraphOfGroups(Graph([f"K{n}"], {}), {f"K{n}": data}, {}, {},
                             check=check)
    return _path_gog(p, n + 1, n + m, check=check)


@dataclass(frozen=True)
class TowerGraphs:
    """The three splittings at parameters (p, n, m)."""

    p: int
    n: int
    m: int
    path: GraphOfGroups     # G_1 .. G_n
    tail: GraphOfGroups     # G_{n+1} .. G_{n+m}; the edge group alone if m = 0
    joined: GraphOfGroups   # G_1 .. G_{n+m} with the lamplighter joined


@lru_cache(maxsize=None)
def build_graphs(p, n, m=0):
    """Assemble the level-(n, m) splittings; certification runs on assembly."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    top = build_level(p, n + m)
    path = _path_gog(p, 1, n)
    tail = _tail_gog(p, n, m)

    ell = n + m
    joined_path = _path_gog(p, 1, ell) if m else path
    vertices = list(joined_path.graph.vertices) + ["W"]
    edges = dict(joined_path.graph.edges)
    edges[f"H{ell}"] = (f"G{ell}", "W")
    data = dict(joined_path.vertices)
    data["W"] = VertexData(top.lamplighter, P.lamplighter_presentation(p, ell))
    edge_data = dict(joined_path.edges)
    edge_data[f"H{ell}"] = EdgeData(
        top.lamps, P.elementary_abelian_presentation(p, lamp_names(p, ell)))
    edge_maps = {}
    for i in range(1, ell):
        names = [f"k{i}"] + lamp_names(p, i)
        edge_maps[f"K{i}"] = (_word_map(names), _word_map(names))
    edge_maps[f"H{ell}"] = (_word_map(lamp_names(p, ell)),
                            _word_map(lamp_names(p, ell)))
    joined = GraphOfGroups(Graph(vertices, edges), data, edge_data, edge_maps)
    return TowerGraphs(p, n, m, path, tail, joined)


# -- witnesses -------------------------------------------------------------------


def _path_vertex_maps(p, levels, target, central_image):
    maps = {}
    for i in range(1, levels + 1):
        if i == 1:
            names = ["k1"] + lamp_names(p, 1)
        else:
            names = [f"k{i - 1}", f"k{i}"] + lamp_names(p, i)
        maps[f"G{i}"] = {g: target.generators[g] for g in names}
    maps["G1"]["c"] = central_image
    return maps


def _joined_vertex_maps(p, levels, target):
    if levels <= 2:
        def rename(g):
            return f"{g}_0" if g.startswith("k") else g
        central = target.generators[f"k{levels}_1"]
    else:
        def rename(g):
            return g
        central = target.generators["c"]
    maps = {}
    for i in range(1, levels + 1):
        if i == 1:
            names = ["k1"] + lamp_names(p, 1)
        else:
            names = [f"k{i - 1}", f"k{i}"] + lamp_names(p, i)
        maps[f"G{i}"] = {g: target.generators[rename(g)] for g in names}
    maps["G1"]["c"] = central
    maps["W"] = {g: target.generators[g]
                 for g in lamp_names(p, levels) + ["t"]}
    return maps


def path_witness_specialisation(p, levels):
    graphs = build_graphs(p, levels, 0)
    target = path_witness_model(p, levels)
    central = target.generators["k2" if levels <= 2 else "c"]
    maps = _path_vertex_maps(p, levels, target, central)
    return graphs.path, Specialisation(graphs.path, target, maps,
                                       name=f"P{levels}->{target.name}")


def joined_witness_specialisation(p, levels):
    graphs = build_graphs(p, levels, 0)
    target = joined_witness_model(p, levels)
    maps = _joined_vertex_maps(p, levels, target)
    return graphs.joined, Specialisation(graphs.joined, target, maps,
                                         name=f"J{levels}->{target.name}")


def build_witnesses(p, levels):
    """Certified properness witnesses for the path and joined splittings."""
    path_gog, path_spec = path_witness_specialisation(p, levels)
    path_witness = verify_properness_witness(path_gog, path_spec)
    joined_gog, joined_spec = joined_witness_specialisation(p, levels)
    joined_witness = verify_properness_witness(joined_gog, joined_spec)
    for witness in (path_witness, joined_witness):
        if not witness.valid:
            raise ValueError(
                f"witness {witness.specialisation.name} failed: "
                f"{witness.report['violations']}")
    return path_witness, joined_witness


# -- transition maps -------------------------------------------------------------


def _substitute(word, images):
    out = IDENTITY
    for name, exp in word.letters():
        image = images[name]
        out = out * (image if exp > 0 else ~image)
    return out


def transition_images(p, n, m):
    """Generator images of the fold from the (n, m+1) tail onto the (n, m)
    tail: identity on the first m vertices, the vertex fold on the last."""
    src = _tail_gog(p, n, m + 1, check=False)
    dst = _tail_gog(p, n, m, check=False)
    src_names = fp_naming(src)
    dst_names = fp_naming(dst)
    last = n + m + 1
    images = {}
    for v in src.graph.vertices:
        i = int(v[1:])
        for g in src.vertices[v].model.generators:
            if i < last:
                images[src_names[v][g]] = gen(dst_names[v][g])
                continue
            dv = f"G{n + m}" if m else f"K{n}"
            if g == f"k{last}":
                images[src_names[v][g]] = IDENTITY
            elif g == f"k{last - 1}":
                images[src_names[v][g]] = gen(dst_names[dv][g])
            else:
                j = int(g[1:])
                folded = f"h{mu(p, n + m, j)}"
                images[src_names[v][g]] = gen(dst_names[dv][folded])
    return images


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
    src = _tail_gog(p, n, m + 2, check=False)
    dst = _tail_gog(p, n, m, check=False)
    src_names = fp_naming(src)
    dst_names = fp_naming(dst)
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


def _dst_vertex_models(dst):
    """fp generator name -> (vertex model, model generator name)."""
    names = fp_naming(dst)
    out = {}
    for v in dst.graph.vertices:
        for g, qual in names[v].items():
            out[qual] = (dst.vertices[v].model, g)
    return out


def check_transition_maps(p, n, m):
    """Certify the fold from the (n, m+1) tail onto the (n, m) tail.

    Image relators must vanish: literally (free reduction), or as elements
    of the single destination vertex group they land in.  The fold composed
    with the inclusion must fix the smaller tail's generators.
    """
    images = transition_images(p, n, m)
    src = _tail_gog(p, n, m + 1, check=False)
    dst = _tail_gog(p, n, m, check=False)
    src_fp = fundamental_presentation(src)
    dst_fp = fundamental_presentation(dst)
    dst_relators = {tuple(r.letters()) for r in dst_fp.relators}
    owners = _dst_vertex_models(dst)
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
    src_names = fp_naming(src)
    dst_names = fp_naming(dst)
    for v in dst.graph.vertices:
        src_vertex = v if m else f"G{n + 1}"
        for g in dst.vertices[v].model.generators:
            back = images[src_names[src_vertex][g]]
            if tuple(back.letters()) != ((dst_names[v][g], 1),):
                violations.append({"kind": "not-a-retraction",
                                   "vertex": v, "generator": g,
                                   "image": repr(back)})
    return {"check": "transition-map", "p": p, "n": n, "m": m,
            "status": "pass" if not violations else "fail",
            "violations": violations}


def check_two_generation(p, n):
    """The lamplighter level is generated by one lamp and the shift."""
    lamp = build_level(p, n).lamplighter
    pair = lamp.closure([lamp.generators["h0"], lamp.generators["t"]])
    return {"check": "two-generation", "p": p, "n": n,
            "status": "pass" if pair.order == lamp.order else "fail",
            "subgroup_order": pair.order, "model_order": lamp.order}
