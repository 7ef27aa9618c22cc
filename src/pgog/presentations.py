"""Finite presentations, homomorphisms, coset enumeration, mod-p rank.

A FinitePresentation is the shared currency between concrete models and
graph-of-groups assembly.  A map out of a model is checked by its graph
(GroupHom.verify), never by relators: a presentation is only known to
present a quotient of its model, so its relators vanishing under a map
does not make the map a homomorphism of the model.  One models.Pcgs of
the graph, target depths first, gives the hom verdict, the image order
and injectivity; the graph with the source depths first is built only to
map elements, by its split, and to report a map that is no hom.
Relators are evaluated only for a map out of a presentation and by
check_model_satisfies, which reads them on the model's own generator
table and cached inverses (FiniteGroupModel.word_coords), with no hom and
no element per relator.  coset_enumerate certifies presentation
orders independently of the models' orders: it is a semi-decision
procedure, so a non-completing run is reported as unknown, never as
failure.  Its engine lives in cosets, imported when it is called, so a
command that counts no cosets does not load it.  mod_p_rank is the
dimension of the mod-p abelianization, i.e. the minimal generator number
of the pro-p completion; abelian_rank builds its exponent rows, and those
of analysis.fundamental_rank.
"""

from functools import cached_property

from . import reports
from .models import FiniteGroupModel, GroupElement, Pcgs
from .words import Word, commutator, gen


class FinitePresentation:
    """Generators plus relator words; every relator name must be declared."""

    def __init__(self, generators, relators, name=""):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        declared = set(self.generators)
        self.relators = tuple(relators)
        for r in self.relators:
            missing = r.names() - declared
            if missing:
                raise ValueError(f"relator {r!r} uses undeclared {sorted(missing)}")
        self.name = name or f"<{len(self.generators)} gens, {len(self.relators)} rels>"

    def __repr__(self):
        return f"FinitePresentation({self.name})"


# -- standard presentation families ------------------------------------------

def power_relators(names, p):
    return [gen(g, p) for g in names]


def commuting_relators(names):
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            out.append(commutator(gen(a), gen(b)))
    return out


def elementary_abelian_presentation(p, names, name=""):
    names = list(names)
    return FinitePresentation(
        names, power_relators(names, p) + commuting_relators(names),
        name or f"EA({p};{','.join(names)})")


def cyclic_presentation(p, n, name="z"):
    return FinitePresentation([name], [gen(name, p ** n)], f"Cyc({p}^{n})")


def heisenberg_presentation(p, names=("x", "y")):
    a, b = names
    z = commutator(gen(a), gen(b))
    relators = [gen(a, p), gen(b, p), z ** p,
                commutator(z, gen(a)), commutator(z, gen(b))]
    return FinitePresentation([a, b], relators, f"Heis({p};{a},{b})")


def gn_presentation(p, n):
    """Two chain layers over p^n lamps, twist at lamp index p^(n-1)."""
    pn = p ** n
    lo, hi = f"k{n - 1}", f"k{n}"
    hs = [f"h{j}" for j in range(pn)]
    names = [lo, hi] + hs
    relators = power_relators(names, p) + commuting_relators(hs)
    relators.append(commutator(gen(lo), gen(hi)))
    relators.append(gen(hi, -1) * commutator(gen(lo), gen(hs[p ** (n - 1)])))
    for j in range(pn):
        relators.append(commutator(gen(hi), gen(hs[j])))
        if j != p ** (n - 1):
            relators.append(commutator(gen(lo), gen(hs[j])))
    return FinitePresentation(names, relators, f"Gn({p},{n})")


def fn_presentation(p, n):
    """Full chain k1..kn over p^n lamps, k{i+1} = [k{i}, h at p^i]."""
    pn = p ** n
    ks = [f"k{i}" for i in range(1, n + 1)]
    hs = [f"h{j}" for j in range(pn)]
    names = ks + hs
    relators = power_relators(names, p) + commuting_relators(hs)
    relators += commuting_relators(ks)
    twist_of = {p ** i: i for i in range(1, n)}
    for i in range(1, n):
        relators.append(
            gen(ks[i], -1) * commutator(gen(ks[i - 1]), gen(hs[p ** i])))
    for idx, k in enumerate(ks, start=1):
        for j in range(pn):
            if twist_of.get(j) != idx:
                relators.append(commutator(gen(k), gen(hs[j])))
    return FinitePresentation(names, relators, f"Fn({p},{n})")


def direct_product_presentation(left, right, name=""):
    """Presentation of the direct product: both relator sets plus
    commutation between the factors' generators."""
    overlap = set(left.generators) & set(right.generators)
    if overlap:
        raise ValueError(f"generator names collide: {sorted(overlap)}")
    cross = [commutator(gen(a), gen(b))
             for a in left.generators for b in right.generators]
    return FinitePresentation(
        list(left.generators) + list(right.generators),
        list(left.relators) + list(right.relators) + cross,
        name or f"{left.name} x {right.name}")


def lamplighter_presentation(p, n):
    pn = p ** n
    hs = [f"h{j}" for j in range(pn)]
    names = hs + ["t"]
    relators = power_relators(hs, p) + [gen("t", pn)]
    relators += commuting_relators(hs)
    for j in range(pn):
        relators.append(
            gen(hs[(j + 1) % pn], -1) * ~gen("t") * gen(hs[j]) * gen("t"))
    return FinitePresentation(names, relators, f"Lamp({p},{n})")


# -- homomorphisms -------------------------------------------------------------

class GroupHom:
    """Map from a presentation or model into a model, given on generators."""

    def __init__(self, source, target, mapping, name=""):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self.name = name
        for g, img in self.mapping.items():
            target._own(img)
        missing = set(source.generators) - set(self.mapping)
        if missing:
            raise ValueError(f"no image for generators {sorted(missing)}")

    def __repr__(self):
        label = self.name or "hom"
        return f"<{label}: {getattr(self.source, 'name', self.source)!s} -> {self.target.name}>"

    def image_of(self, name):
        return self.mapping[name]

    def apply(self, word):
        return self.target.evaluate(word, self.mapping)

    def _model_source(self):
        if not isinstance(self.source, FiniteGroupModel):
            raise ValueError(f"{self!r} needs a model source")
        return self.source

    @cached_property
    def _census(self):
        """(hom, image order, injective), read off one Pcgs: that of the
        graph <(image of g, g)> in target x source, target depths first.
        Its entries at target depths are a pcgs of the image, and those
        at source depths one of the graph's meet with 1 x source.  The
        graph projects onto the source, so the map extends to a hom
        exactly when the graph has the source's order, and the hom is
        injective exactly when no entry sits at a source depth.  Into a
        group of another prime only the trivial map is a hom, and the
        image order comes from the images alone."""
        src, tgt = self._model_source(), self.target
        images = [self.mapping[g] for g in src.generators]
        if src.p != tgt.p:
            order = tgt.subgroup(images).order
            return order == 1, order, order == 1 == src.order
        graph = Pcgs(tgt, src, [(y.coords, x.coords) for y, x
                                in zip(images, src.generators.values())])
        hom = graph.order == src.order
        return hom, tgt.p ** graph.a_entries, hom and not graph.b_entries

    @property
    def image_order(self):
        """Order of the subgroup the source generators' images generate."""
        return self._census[1]

    @cached_property
    def _graph(self):
        """The Pcgs of the graph <(g, image of g)> in source x target,
        source depths first.  It maps elements (apply_element); only that
        and the report of a map that is no hom build it.  Its first_b,
        some t != 1 with (1, t) in the graph, shows that the generator
        map extends to no homomorphism."""
        src = self._model_source()
        return Pcgs(src, self.target, [(e.coords, self.mapping[g].coords)
                                       for g, e in src.generators.items()])

    def apply_element(self, element):
        """Image of a source-model element: the graph's split of it, which
        is (1, image) when the element lies in the subgroup the source
        generators generate, so nothing is enclosed and no word is
        evaluated.  Raises ValueError when the generator map is not a
        homomorphism or the element lies outside that subgroup."""
        graph = self._graph
        if graph.first_b is not None:
            raise ValueError(f"{self!r} is not a homomorphism")
        s, image = graph.split(self.source._own(element))
        if any(s):
            raise ValueError(f"{element!r} lies outside the subgroup the "
                             f"generators of {self.source.name} generate")
        return GroupElement(self.target, image)

    def verify(self):
        """The report check "hom": the generator map extends to a hom.

        A model source is checked by its graph: the generator map extends
        to a hom exactly when the graph has the source's order (_census).
        Nothing is enclosed.  A map that is no hom is reported by the
        graph with the source depths first (_graph): the coordinates of
        its first_b, some t != 1 with (1, t) in the graph, are the
        violation.  Into a group of another prime only the trivial map is
        a hom, and each nontrivial generator image is a violation.  A
        FinitePresentation source is checked against its own relators: by
        von Dyck's theorem the map extends to a hom exactly when every
        relator maps to the identity.
        """
        src = self.source
        if isinstance(src, FinitePresentation):
            violations = []
            for r in src.relators:
                img = self.apply(r)
                if not img.is_identity:
                    violations.append({"kind": "relator", "relator": repr(r),
                                       "image": list(img.coords)})
            return reports.check("hom", violations)
        if src.p != self.target.p:
            return reports.check("hom", [
                {"kind": "prime", "generator": g,
                 "image": list(self.mapping[g].coords)}
                for g in src.generators if not self.mapping[g].is_identity])
        if self._census[0]:
            return reports.check("hom", [])
        return reports.check(
            "hom", [{"kind": "graph", "image": list(self._graph.first_b)}])


def hom_injective_on(hom):
    """True iff the map is a hom, injective on its whole source model: its
    graph, target depths first, has the source's order and no entry at a
    source depth (GroupHom._census)."""
    return hom._census[2]


def check_model_satisfies(presentation, model):
    """Relators hold on the model generators of the same names, AND those
    generators generate the model: the model is a quotient of the
    presented group, which does not make the presentation exact.

    Every presentation generator must name a model generator.  The named
    ones generate the model exactly when every unnamed model generator
    lies in the subgroup they generate.  The check is "model-satisfies".
    """
    named = set(presentation.generators)
    missing = named - set(model.generators)
    if missing:
        raise ValueError(f"{presentation.name} names generators "
                         f"{sorted(missing)} that {model.name} lacks")
    violations = []
    for r in presentation.relators:
        coords = model.word_coords(r)
        if any(coords):
            violations.append({"kind": "relator", "relator": repr(r),
                               "image": list(coords)})
    unnamed = [g for g in model.generators if g not in named]
    if unnamed:
        sub = model.subgroup(list(presentation.generators))
        if any(model.generators[g] not in sub for g in unnamed):
            violations.append({"kind": "generation", "subgroup_order": sub.order,
                               "model_order": model.order})
    return reports.check("model-satisfies", violations,
                         presentation=presentation.name, model=model.name)


# -- mod-p rank -----------------------------------------------------------------

def mod_p_rank(presentation, p):
    """#generators - rank over F_p of the relator exponent matrix."""
    index = {g: i for i, g in enumerate(presentation.generators)}
    return abelian_rank(len(index), [[(index[g], e) for g, e in r.syllables]
                                     for r in presentation.relators], p)


def abelian_rank(columns, rows, p):
    """columns - the rank over F_p of the rows, each given as (column,
    exponent) terms, which are summed mod p; a row whose terms cancel is
    dropped before it is built."""
    matrix = []
    for terms in rows:
        sums = {}
        for c, e in terms:
            sums[c] = (sums.get(c, 0) + e) % p
        if any(sums.values()):
            row = [0] * columns
            for c, e in sums.items():
                row[c] = e
            matrix.append(row)
    return columns - _gf_rank(matrix, p)


def _gf_rank(rows, p):
    """Rank over F_p of rows of equal length, which it reduces in place."""
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- coset enumeration ------------------------------------------------------------

def coset_enumerate(presentation, subgroup_words=(), max_cosets=65536):
    """HLT enumeration of cosets of <subgroup_words> in the presented group,
    as a cosets.CosetTable; a table that ran out of cosets is incomplete.

    Deterministic: relators in declaration order, cosets in creation
    order, gaps filled eagerly.  On completion the table is re-verified
    (every relator closes at every coset, every subgroup word fixes
    coset 0), so a complete result is a certificate.
    """
    from .cosets import enumerate_cosets
    return enumerate_cosets(presentation, subgroup_words, max_cosets)
