"""Finite graphs of finite p-group models.

Assembly and certification: every edge map is verified as an injective
homomorphism at construction, vertex models are certified against their
presentations, and the fundamental-group presentation is produced with
stable letters for non-tree edges.  A vertex presentation is certified
once: its report is kept on its VertexData, however many graphs share
it; each graph certifies its own edge maps, one GroupHom per model end.
A specialisation (target model, vertex maps, edge elements) names the
graph it maps, and every check of it reads the graph from it:
verify_specialisation checks the two defining conditions, and
verify_properness_witness packages it, with the image order of every
vertex group, as a PropernessWitness; certified(spec) is that witness
or a ValueError if it failed.  A specialisation keeps one GroupHom per
vertex, so the hom check and the image order read one graph.  Every
map out of a model, edge map or vertex map, is checked by its graph
(GroupHom.verify).  Relators are evaluated only to certify a vertex
presentation.

Vertex groups are usually concrete models with certified presentations;
a vertex may instead carry a presentation alone (used by
bracket_subgraph, where the bracketed group is an amalgam with no finite
model); such a vertex cannot be specialised.  Edge groups are models
alone: their presentations are never needed.  Edge maps are words over
the end vertex's generators, so the fundamental presentation reads them
as given and nothing here enumerates a group.
"""

from functools import cached_property

from . import reports
from .presentations import (FinitePresentation, GroupHom,
                            check_model_satisfies, hom_injective_on)
from .words import Word, gen


class Graph:
    """Finite connected graph with oriented edges (d0, d1)."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        vset = set(self.vertices)
        self.edges = {}
        for eid, (v0, v1) in dict(edges).items():
            if v0 not in vset or v1 not in vset:
                raise ValueError(f"edge {eid} touches an unknown vertex")
            self.edges[eid] = (v0, v1)
        self.tree = (self._bfs_tree() if self.vertices
                     else SpanningTree(None, ()))

    def ends(self, eid):
        return self.edges[eid]

    def is_loop(self, eid):
        v0, v1 = self.edges[eid]
        return v0 == v1

    def _bfs_tree(self):
        """BFS tree from the least vertex, loops skipped, in edge order."""
        root = min(self.vertices)
        seen = {root}
        queue = [root]
        tree = []
        while queue:
            v = queue.pop(0)
            for eid, (v0, v1) in self.edges.items():
                if v0 == v1:
                    continue
                for a, b in ((v0, v1), (v1, v0)):
                    if a == v and b not in seen:
                        seen.add(b)
                        tree.append(eid)
                        queue.append(b)
        if len(seen) != len(self.vertices):
            raise ValueError("graph is not connected")
        return SpanningTree(root, tree)


class SpanningTree:
    def __init__(self, root, edge_ids):
        self.root = root
        self.edge_ids = tuple(edge_ids)
        self._set = frozenset(edge_ids)

    def __contains__(self, eid):
        return eid in self._set

    def __repr__(self):
        return f"SpanningTree(root={self.root!r}, edges={self.edge_ids!r})"


def spanning_tree(graph_or_gog):
    """Deterministic BFS tree rooted at the lexicographically least vertex."""
    return getattr(graph_or_gog, "graph", graph_or_gog).tree


class VertexData:
    """A vertex group: a model with a certified presentation, or a
    presentation alone (no finite model, e.g. a bracketed subgraph).

    A presentation's generator names are its model's generator names.
    """

    def __init__(self, model=None, presentation=None):
        if model is None and presentation is None:
            raise ValueError("vertex needs a model or a presentation")
        self.model = model
        self.presentation = presentation

    @property
    def is_model(self):
        return self.model is not None

    @cached_property
    def certification(self):
        """The model-satisfies report, computed once however many graphs
        share this vertex."""
        return check_model_satisfies(self.presentation, self.model)


def _rename_word(word, mapping):
    return Word(tuple((mapping[n], e) for n, e in word.syllables))


class GraphOfGroups:
    """Graph + vertex/edge groups + verified edge monomorphisms.

    edges[eid] is the edge group's model.  edge_maps[eid] = (map0, map1);
    each map sends every edge-model generator name to a Word over the end
    vertex's generator names.  An image given as an element is refused:
    the fundamental presentation needs words, and reading a word off an
    element would enumerate the vertex group.  Certification evaluates
    the words and leaves every edge's two maps as GroupHoms in edge_homs
    (None at a presentation-only end).
    """

    def __init__(self, graph, vertex_data, edge_models, edge_maps, check=True):
        self.graph = graph
        self.vertices = dict(vertex_data)
        self.edges = dict(edge_models)
        for v in graph.vertices:
            if v not in self.vertices:
                raise ValueError(f"vertex {v} has no group")
        for eid in graph.edges:
            if eid not in self.edges or eid not in edge_maps:
                raise ValueError(f"edge {eid} has no group or maps")
        self.edge_maps = {}
        for eid in graph.edges:
            self.edge_maps[eid] = tuple(
                self._check_words(eid, k, edge_maps[eid][k]) for k in (0, 1))
        self.edge_homs = {}
        if check:
            self._certify()

    def _check_words(self, eid, k, raw):
        """The image word of every edge generator, over the end vertex's
        generator names."""
        vd = self.vertices[self.graph.ends(eid)[k]]
        names = (vd.model.generators if vd.is_model
                 else vd.presentation.generators)
        out = {}
        for gname in self.edges[eid].generators:
            if gname not in raw:
                raise ValueError(f"edge {eid} end {k}: no image for {gname}")
            word = raw[gname]
            if not isinstance(word, Word):
                raise ValueError(f"edge {eid} end {k}: the image of {gname} "
                                 "must be a Word")
            missing = word.names() - set(names)
            if missing:
                raise ValueError(f"edge {eid} end {k}: image word uses "
                                 f"unknown names {sorted(missing)}")
            out[gname] = word
        return out

    def _certify(self):
        for v, vd in self.vertices.items():
            if vd.is_model and vd.presentation is not None:
                report = vd.certification
                if report["status"] != reports.PASS:
                    raise ValueError(f"vertex {v}: presentation not satisfied: "
                                     f"{report['details']['violations'][:2]}")
        for eid in self.graph.edges:
            homs = []
            for k in (0, 1):
                vd = self.vertices[self.graph.ends(eid)[k]]
                if not vd.is_model:
                    homs.append(None)
                    continue
                mapping = {g: vd.model.evaluate(w)
                           for g, w in self.edge_maps[eid][k].items()}
                hom = GroupHom(self.edges[eid], vd.model, mapping,
                               name=f"d{k}({eid})")
                report = hom.verify()
                if report["status"] != reports.PASS:
                    raise ValueError(
                        f"edge {eid} end {k}: map is not a homomorphism: "
                        f"{report['details']['violations'][:2]}")
                if not hom_injective_on(hom):
                    raise ValueError(f"edge {eid} end {k}: map is not injective")
                homs.append(hom)
            self.edge_homs[eid] = tuple(homs)

    def image_word(self, eid, k, gname):
        """The image of an edge generator as a word over the end vertex's
        generators."""
        return self.edge_maps[eid][k][gname]


def check_reduced(gog):
    """No edge map onto a full endpoint group, except at loops."""
    for eid in gog.graph.edges:
        if gog.graph.is_loop(eid):
            continue
        for k in (0, 1):
            v = gog.graph.ends(eid)[k]
            vd = gog.vertices[v]
            if not vd.is_model:
                raise ValueError(f"vertex {v} has no model; cannot compare orders")
            images = [vd.model.evaluate(w)
                      for w in gog.edge_maps[eid][k].values()]
            if vd.model.subgroup(images).order >= vd.model.order:
                return False
    return True


def fp_naming(gog):
    """Fundamental-presentation name per vertex generator: bare when unique
    across vertices, '<vertex>.<name>' on collision."""
    owners = {}
    for v in gog.graph.vertices:
        pres = gog.vertices[v].presentation
        if pres is None:
            raise ValueError(f"vertex {v} lacks a certified presentation")
        for g in pres.generators:
            owners.setdefault(g, []).append(v)
    return {v: {g: (g if len(owners[g]) == 1 else f"{v}.{g}")
                for g in gog.vertices[v].presentation.generators}
            for v in gog.graph.vertices}


def stable_letters(gog, tree):
    return {eid: f"t_{eid}" for eid in gog.graph.edges if eid not in tree}


def fundamental_presentation(gog, tree=None):
    """Vertex presentations + one stable letter per non-tree edge, with
    edge identifications on edge-group generators.

    Relator per edge generator g: image0(g)^-1 * t_e * image1(g) * t_e^-1,
    with t_e omitted on tree edges.
    """
    tree = tree if tree is not None else spanning_tree(gog)
    qual = fp_naming(gog)
    gens, relators = [], []
    for v in gog.graph.vertices:
        pres = gog.vertices[v].presentation
        rename = qual[v]
        gens += [rename[g] for g in pres.generators]
        relators += [_rename_word(r, rename) for r in pres.relators]
    letters = stable_letters(gog, tree)
    clash = set(letters.values()) & set(gens)
    if clash:
        raise ValueError(f"stable letter names collide: {sorted(clash)}")
    gens += [letters[eid] for eid in gog.graph.edges if eid in letters]
    for eid in gog.graph.edges:
        v0, v1 = gog.graph.ends(eid)
        for gname in gog.edges[eid].generators:
            w0 = _rename_word(gog.image_word(eid, 0, gname), qual[v0])
            w1 = _rename_word(gog.image_word(eid, 1, gname), qual[v1])
            if eid in letters:
                t = gen(letters[eid])
                relators.append(~w0 * t * w1 * ~t)
            else:
                relators.append(~w0 * w1)
    name = "pi1(" + ",".join(gog.graph.vertices) + ")"
    return FinitePresentation(gens, relators, name)


class Specialisation:
    """The graph it maps, a target model, one GroupHom per vertex, and
    edge elements.  Every vertex needs a model: a presentation-only
    vertex is refused."""

    def __init__(self, gog, target, vertex_maps, edge_elements=None, name=""):
        self.gog = gog
        self.target = target
        self.name = name
        self.homs = {}
        for v in gog.graph.vertices:
            model = gog.vertices[v].model
            if model is None:
                raise ValueError(f"vertex {v} has no model to specialise")
            try:
                self.homs[v] = GroupHom(model, target, vertex_maps[v],
                                        name=f"nu({v})")
            except ValueError as exc:
                raise ValueError(f"vertex {v}: {exc}") from None
        self.edge_elements = {}
        for eid in gog.graph.edges:
            t = (edge_elements or {}).get(eid, target.identity)
            target._own(t)
            self.edge_elements[eid] = t

    @property
    def vertex_maps(self):
        """Each vertex's generator images, read off its hom."""
        return {v: hom.mapping for v, hom in self.homs.items()}

    def vertex_hom(self, v):
        """nu_v as a GroupHom, so that every check of the specialisation
        reads the same graph pcgs."""
        return self.homs[v]

    def edge_image(self, eid, k, gname):
        """nu_{d_k(e)} applied to the edge generator's image."""
        v = self.gog.graph.ends(eid)[k]
        return self.homs[v].apply(self.gog.image_word(eid, k, gname))


def verify_specialisation(spec):
    """Check vertex maps are homs, tree edges carry the identity, and both
    edge images agree up to conjugation by the edge element, which is
    skipped where that element is the identity, as on every tree edge.
    Returns the report check "specialisation" with the target's name."""
    gog = spec.gog
    violations = []
    for v in gog.graph.vertices:
        for item in spec.vertex_hom(v).verify()["details"]["violations"]:
            violations.append({**item, "vertex": v})
    tree = spanning_tree(gog)
    for eid in tree.edge_ids:
        if not spec.edge_elements[eid].is_identity:
            violations.append({"kind": "tree-edge", "edge": eid})
    for eid in gog.graph.edges:
        t = spec.edge_elements[eid]
        conjugate = not t.is_identity
        for gname in gog.edges[eid].generators:
            lhs = spec.edge_image(eid, 0, gname)
            rhs = spec.edge_image(eid, 1, gname)
            if conjugate:
                rhs = t * rhs * ~t
            if lhs != rhs:
                violations.append({"kind": "edge-compatibility", "edge": eid,
                                   "generator": gname,
                                   "d0_image": list(lhs.coords),
                                   "d1_image_conjugated": list(rhs.coords)})
    return reports.check("specialisation", violations,
                         target=spec.target.name)


class PropernessWitness:
    """A specialisation and its report check "properness-witness", which
    passes when the specialisation is injective on every vertex group."""

    def __init__(self, specialisation, report, vertex_image_orders):
        self.specialisation = specialisation
        self.report = report
        self.vertex_image_orders = dict(vertex_image_orders)

    @property
    def valid(self):
        return self.report["status"] == reports.PASS

    def __repr__(self):
        state = "certified" if self.valid else "invalid"
        return f"<PropernessWitness into {self.specialisation.target.name}: {state}>"


def verify_properness_witness(spec):
    """verify_specialisation plus per-vertex injectivity by image orders,
    read off the vertex homs' graph pcgs that verify_specialisation built."""
    violations = verify_specialisation(spec)["details"]["violations"]
    orders = {}
    for v in spec.gog.graph.vertices:
        order = spec.gog.vertices[v].model.order
        orders[v] = spec.vertex_hom(v).image_order
        if orders[v] != order:
            violations.append({"kind": "injectivity", "vertex": v,
                               "vertex_order": order,
                               "image_order": orders[v]})
    report = reports.check("properness-witness", violations,
                           target=spec.target.name)
    return PropernessWitness(spec, report, orders)


def certified(spec):
    """The properness witness of spec; ValueError if it failed."""
    witness = verify_properness_witness(spec)
    if not witness.valid:
        raise ValueError(f"witness {spec.name} failed: "
                         f"{witness.report['details']['violations']}")
    return witness


def bracket_subgraph(gog, subgraph_vertices, bracket_id=None):
    """Collapse a connected subgraph to one vertex carrying its fundamental
    presentation; crossing edge maps are re-targeted through it."""
    inside = [v for v in gog.graph.vertices if v in set(subgraph_vertices)]
    if set(subgraph_vertices) - set(inside):
        raise ValueError("subgraph vertices not in the graph")
    if not inside:
        raise ValueError("empty subgraph")
    bracket_id = bracket_id or "[" + "+".join(inside) + "]"
    inner_edges = {eid: ends for eid, ends in gog.graph.edges.items()
                   if ends[0] in inside and ends[1] in inside}
    sub_graph = Graph(inside, inner_edges)   # raises if disconnected
    sub_gog = GraphOfGroups(sub_graph,
                            {v: gog.vertices[v] for v in inside},
                            {eid: gog.edges[eid] for eid in inner_edges},
                            {eid: tuple({g: gog.image_word(eid, k, g)
                                         for g in gog.edges[eid].generators}
                                        for k in (0, 1))
                             for eid in inner_edges},
                            check=False)
    sub_fp = fundamental_presentation(sub_gog)
    qual = fp_naming(sub_gog)

    out_vertices = [v for v in gog.graph.vertices if v not in set(inside)]
    new_vertices = out_vertices + [bracket_id]
    new_edges, new_data, new_maps = {}, {}, {}
    for v in out_vertices:
        new_data[v] = gog.vertices[v]
    new_data[bracket_id] = VertexData(presentation=sub_fp)
    for eid, (v0, v1) in gog.graph.edges.items():
        if eid in inner_edges:
            continue
        ends = tuple(bracket_id if v in set(inside) else v for v in (v0, v1))
        maps = []
        for k, v in enumerate((v0, v1)):
            words = {g: gog.image_word(eid, k, g)
                     for g in gog.edges[eid].generators}
            if v in set(inside):
                words = {g: _rename_word(w, qual[v]) for g, w in words.items()}
            maps.append(words)
        new_edges[eid] = ends
        new_maps[eid] = tuple(maps)
    edge_models = {eid: gog.edges[eid] for eid in new_edges}
    return GraphOfGroups(Graph(new_vertices, new_edges), new_data,
                         edge_models, new_maps, check=False)
