"""Normal forms over path-shaped graphs of finite groups, plus separation.

Every graph the tower assembles is a path, so elements of its fundamental
group carry a canonical alternating form: a head element in the leftmost
vertex group followed by coset-representative syllables walking the path.
A syllable's representative is what the split of a Transversal, the
models.Pcgs of the graph of an edge's two maps, leaves of it (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, §8.3), and the
same split carries the edge-group part across the edge; nothing is
enumerated, and normal forms are reproducible across runs.  Each
Transversal remembers the splits it has made, up to a bound: a split is
a pure function of its argument, so a remembered one is exactly what a
fresh sift returns.  The form is empty exactly for the trivial element,
solving the word problem.  The reduction runs on coordinate tuples, with
heads and representatives interned per path; group elements are made
only for the resulting ReducedWord.

separate() hunts for the least level whose lamp-joined splitting both keeps
a mixed word in nonempty reduced form and pushes it to a nontrivial image in
the level's verified finite quotient, which certifies the separation, and
otherwise says the word is trivial or no searched level separates it.
"""

import re
import weakref
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from . import _kernels_py as kernel
from . import models
from .tower import LEVEL_CACHE, build_witnesses, check_budget, vertex_data
from .words import Word, from_letters


# -- transversals ------------------------------------------------------------


# Measured with Python 3.11 on a shared 2-core x86-64 host: one
# nf-products pass of the benchmark (seed 7, 4,000 ops over the level-3
# joined splitting at p = 2) makes 104,822 splits of only 1,403 distinct
# arguments.  Its six memos then hold 13,112 coordinates of x in 341 KB
# (tracemalloc: keys, values and dicts), ~26 B per coordinate, and the
# largest, K2@G3, 690 entries of width 10.  So one memo of at most
# SPLIT_MEMO_COORDS coordinates holds at most ~1.7 MB, ~9 times the
# largest seen.
SPLIT_MEMO_COORDS = 2 ** 16


def _path_order(gog):
    """Vertex ids in path order; raises when the graph is not a path."""
    vertices = list(gog.graph.vertices)
    for eid in gog.graph.edges:
        if gog.graph.is_loop(eid):
            raise ValueError(f"not a path: edge {eid} is a loop")
    if len(gog.graph.edges) != len(vertices) - 1:
        raise ValueError("not a path: wrong edge count")
    neighbours = {v: [] for v in vertices}
    for eid in gog.graph.edges:
        a, b = gog.graph.ends(eid)
        neighbours[a].append(b)
        neighbours[b].append(a)
    if any(len(ns) > 2 for ns in neighbours.values()):
        raise ValueError("not a path: branching vertex")
    if len(vertices) == 1:
        return (vertices[0],)
    start = next(v for v in vertices if len(neighbours[v]) == 1)
    order, seen = [start], {start}
    while True:
        step = [w for w in neighbours[order[-1]] if w not in seen]
        if not step:
            break
        order.append(step[0])
        seen.add(step[0])
    if len(order) != len(vertices):
        raise ValueError("not a path: not connected")
    return tuple(order)


class Transversal(models.Pcgs):
    """Right-coset representatives of one edge-group image in one vertex
    model, read off one sift instead of a table: the Pcgs of the graph
    <(phi(k), psi(k))> in vertex x other end, phi the certified edge map
    into this end and psi the one into the other end.  split(y) is (s, c)
    with y = phi(kappa) s for an edge element kappa: s is the canonical
    representative of y's right coset and c = psi(kappa), all as
    coordinate tuples.  phi is injective: the graph has the edge's order.

    split remembers its results in a memo of this object's own, never
    shared with another Transversal, however equal: that is exact,
    since a sift depends on x alone.  The memo keeps at most
    SPLIT_MEMO_COORDS coordinates of x, entries times the vertex width;
    a full one serves its hits and takes no new entry.  Entries share
    one tuple per distinct s or c, so the identity c is stored once.
    """

    def __init__(self, edge_id, end, vertex, hom, other):
        super().__init__(hom.target, other.target,
                         [(hom.image_of(g).coords, other.image_of(g).coords)
                          for g in hom.source.generators])
        self.edge_id = edge_id
        self.end = end
        self.vertex = vertex
        self.hom = hom                      # edge group -> vertex model
        self.coset_count = hom.target.order // self.order
        self._splits = {}                   # x -> split(x)
        self._parts = {}                    # s or y -> the same

    def split(self, x):
        """models.Pcgs.split(x), remembered (see the class docstring)."""
        hit = self._splits.get(x)
        if hit is None:
            s, y = hit = super().split(x)
            if (len(self._splits) + 1) * self._width <= SPLIT_MEMO_COORDS:
                parts = self._parts
                hit = self._splits[x] = (parts.setdefault(s, s),
                                         parts.setdefault(y, y))
        return hit

    def __repr__(self):
        return (f"<Transversal {self.edge_id}@{self.vertex}: "
                f"{self.coset_count} cosets>")


def build_transversals(gog):
    """Coset representatives for both ends of every edge of a path.

    They use the edge maps the graph certified as injective model
    homomorphisms; a graph built with check=False is rejected.
    """
    _path_order(gog)
    for eid in gog.graph.edges:
        if None in gog.edge_homs.get(eid, (None,)):
            raise ValueError(f"edge {eid} has no certified model maps; "
                             "normal forms need injective edge maps")
    homs = gog.edge_homs
    return {(eid, end): Transversal(eid, end, gog.graph.ends(eid)[end],
                                    homs[eid][end], homs[eid][1 - end])
            for eid in gog.graph.edges for end in (0, 1)}


class _PathTables:
    """Path layout, vertex models and transversals, built once per graph.

    Never holds the GraphOfGroups: _PATHS is keyed weakly by it, and a
    value referring to its key would keep it alive.
    """

    def __init__(self, gog):
        self.order = order = _path_order(gog)
        self.models = {v: gog.vertices[v].model for v in order}
        self.blocks = {v: model.blocks for v, model in self.models.items()}
        edge_between = {}
        for eid in gog.graph.edges:
            a, b = gog.graph.ends(eid)
            edge_between[(a, b)] = edge_between[(b, a)] = eid
        # (a, b) -> the identity syllables at each vertex after a along
        # the path up to b, each with the edge it is entered by
        self.walks = {}
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                step = 1 if j > i else -1
                self.walks[(a, b)] = tuple(
                    (order[k], self.models[order[k]].identity.coords,
                     edge_between[(order[k - step], order[k])])
                    for k in range(i + step, j + step, step))
        self.interned = {}      # coords -> the same: heads and representatives
        # keyed by (edge, end vertex): a path has no loops
        self.transversals = {(eid, t.vertex): t for (eid, _), t
                             in build_transversals(gog).items()}


_PATHS = weakref.WeakKeyDictionary()


def _paths(gog):
    entry = _PATHS.get(gog)
    if entry is None:
        entry = _PATHS[gog] = _PathTables(gog)
    return entry


# -- reduced words -----------------------------------------------------------


class ReducedWord:
    """Canonical alternating form of a path fundamental-group element.

    head lives in the leftmost vertex group; each syllable records the
    vertex it sits in, its coset representative, and the edge it was
    entered by, so the walk along the path is recoverable.
    """

    def __init__(self, gog, base_vertex, head, syllables):
        self.gog = gog
        self.base_vertex = base_vertex
        self.head = head
        self.syllables = tuple(syllables)

    @property
    def is_trivial(self):
        return self.head.is_identity and not self.syllables

    @property
    def syllable_count(self):
        return len(self.syllables)

    def letters(self):
        """Vertex-tagged elements multiplying left-to-right to the element."""
        out = []
        if not self.head.is_identity:
            out.append((self.base_vertex, self.head))
        out.extend((v, rep) for v, rep, _ in self.syllables
                   if not rep.is_identity)
        return out

    def __eq__(self, other):
        return (isinstance(other, ReducedWord) and self.gog is other.gog
                and self.head == other.head
                and self.syllables == other.syllables)

    def __repr__(self):
        if self.is_trivial:
            return "<ReducedWord trivial>"
        parts = [f"{v}:{tuple(rep.coords)}" for v, rep, _ in self.syllables]
        return (f"<ReducedWord head={tuple(self.head.coords)} "
                + " ".join(parts) + ">")


class _Accumulator:
    """Right-multiplies letters into a reduced word, one at a time, on
    coordinate tuples; elements are made only for the result.  A coset
    representative s that a split returns is stored as it is, never
    split again: it would split to (s, 1) (see _merge).  Walking the
    path appends a precomputed run of identity syllables, and a split
    with s = 1 carries its edge part back by a loop, not a call."""

    def __init__(self, gog, tables):
        self.tables = tables
        self.gog = gog
        self.base = tables.order[0]
        self.head = tables.models[self.base].identity.coords
        self.stack = []     # (vertex, representative coords, entry edge)

    def push(self, vertex, x):
        """Multiply by x, coordinates in the vertex's model, on the right."""
        self._walk(vertex)
        self._merge(x)

    def _walk(self, vertex):
        # append an identity syllable at each vertex from the end vertex
        # along the path to vertex
        stack = self.stack
        stack.extend(self.tables.walks[
            (stack[-1][0] if stack else self.base, vertex)])

    def _merge(self, x):
        # multiply x into the current end vertex and restore canonical form
        tables, stack = self.tables, self.stack
        while True:
            if not any(x):
                while stack and not any(stack[-1][1]):
                    stack.pop()
                return
            if not stack:
                self.head = kernel.mul(tables.blocks[self.base], self.head, x)
                return
            vertex, rep, entry = stack.pop()
            # rep * x = phi(kappa) s; psi(kappa) moves back across the
            # entry edge, into the syllable before
            if any(rep):
                x = kernel.mul(tables.blocks[vertex], rep, x)
            s, c = tables.transversals[(entry, vertex)].split(x)
            if any(s):
                break
            x = c
        if any(c):
            # c lies in the entry edge's image at the vertex before, and
            # merging it stops short of any turn of the walk (a turn's
            # representative times c stays outside that image), so the
            # walk back re-enters vertex by the entry edge, where s, this
            # transversal's canonical representative, splits to (s, 1)
            self._merge(c)
            self._walk(vertex)
            stack.pop()
        stack.append((vertex, tables.interned.setdefault(s, s), entry))

    def result(self):
        element = models.GroupElement
        vertex_models = self.tables.models
        head = self.tables.interned.setdefault(self.head, self.head)
        return ReducedWord(
            self.gog, self.base, element(vertex_models[self.base], head),
            [(v, element(vertex_models[v], rep), eid)
             for v, rep, eid in self.stack])


def _as_coords(gog, letters):
    items = []
    for i, (vertex, item) in enumerate(letters):
        if vertex not in gog.vertices:
            raise ValueError(f"letter {i}: unknown vertex {vertex!r}")
        model = gog.vertices[vertex].model
        if isinstance(item, Word):
            try:
                element = model.evaluate(item)
            except KeyError as exc:
                raise ValueError(f"letter {i} at {vertex}: {exc}") from None
        elif isinstance(item, models.GroupElement):
            if item.model != model:
                raise ValueError(
                    f"letter {i}: element does not belong to vertex {vertex}")
            element = item
        else:
            raise ValueError(f"letter {i}: expected a Word or GroupElement")
        items.append((vertex, element.coords))
    return items


def normal_form(gog, letters):
    """Reduce vertex-tagged letters to the canonical alternating form.

    Letters are (vertex id, element-or-Word) pairs multiplied left to
    right; the result is empty exactly when the product is trivial in the
    path's fundamental group.
    """
    acc = _Accumulator(gog, _paths(gog))
    for vertex, x in _as_coords(gog, letters):
        acc.push(vertex, x)
    return acc.result()


def nf_multiply(x, y):
    """Normal form of the product of two reduced words over the same path."""
    if not isinstance(x, ReducedWord) or not isinstance(y, ReducedWord):
        raise ValueError("nf_multiply needs two ReducedWords")
    if x.gog is not y.gog:
        raise ValueError("reduced words live over different graphs")
    # x is already reduced, so the accumulator starts from its coordinates
    acc = _Accumulator(x.gog, _paths(x.gog))
    acc.head = x.head.coords
    acc.stack = [(v, rep.coords, eid) for v, rep, eid in x.syllables]
    for vertex, element in y.letters():
        acc.push(vertex, element.coords)
    return acc.result()


# -- separation --------------------------------------------------------------


class PathLetter(namedtuple("PathLetter", "vertex word")):
    """A path-side letter: a Word `word` at the path vertex `vertex` (G<i>)."""

    __slots__ = ()


class LampLetter(namedtuple("LampLetter", "level word")):
    """A lamplighter-side letter at its native level: a Word over the lamp
    generators and the shift."""

    __slots__ = ()


def path_letter(vertex, word):
    """A path letter: one Word at the path vertex `G<i>`."""
    _vertex_index(vertex)
    if not isinstance(word, Word):
        raise ValueError(f"path letter at {vertex}: expected a Word")
    return PathLetter(vertex, word)


def lamp_letter(level, item):
    """A lamplighter letter: one Word over the lamp generators and t."""
    if not isinstance(item, Word):
        raise ValueError("lamp letter: expected a Word")
    for name in item.names():
        if name != "t" and not re.fullmatch("h[0-9]+", name):
            raise ValueError(f"lamp letter: unknown generator {name!r}")
    return LampLetter(int(level), item)


def _vertex_index(vertex):
    if not re.fullmatch("G[0-9]+", vertex):
        raise ValueError(
            f"path letters live at vertices 'G<i>', got {vertex!r}")
    return int(vertex[1:])


def _fold_lamp_word(p, level, word):
    """Project a lamplighter word down to the given level's window."""
    window = p ** level
    letters = []
    for name, sign in word.letters():
        if name.startswith("h"):
            name = f"h{int(name[1:]) % window}"
        letters.append((name, sign))
    return from_letters(letters)


@lru_cache(maxsize=LEVEL_CACHE)
def _level_data(p, level):
    """The lamp-joined splitting and its certified properness witness map."""
    spec = build_witnesses(p, level)[1].specialisation
    return spec.gog, spec


def _level_items(letters, p, level):
    items = []
    for letter in letters:
        if isinstance(letter, PathLetter):
            items.append((letter.vertex, letter.word))
        else:
            items.append(("W", _fold_lamp_word(p, level, letter.word)))
    return items


def _direct_image(letters, p, level, spec):
    image = spec.target.identity
    for letter in letters:
        if isinstance(letter, PathLetter):
            image = image * spec.vertex_hom(letter.vertex).apply(letter.word)
        else:
            folded = _fold_lamp_word(p, level, letter.word)
            image = image * spec.vertex_hom("W").apply(folded)
    return image


class SeparationCertificate:
    """A finite p-group quotient where the input word is visibly nontrivial."""

    def __init__(self, letters, level, specialisation, image, reduced):
        self.letters = tuple(letters)
        self.level = level
        self.specialisation = specialisation
        self.image = image
        self.reduced = reduced

    def reevaluate(self):
        """Recompute the image straight from the letters through the map."""
        p = self.specialisation.target.p
        return _direct_image(self.letters, p, self.level, self.specialisation)

    def __repr__(self):
        return (f"<SeparationCertificate level={self.level} "
                f"target={self.specialisation.target.name} "
                f"image={tuple(self.image.coords)}>")


Verdict = Enum("Verdict", "SEPARATED TRIVIAL INCONCLUSIVE")


def search_levels(letters, start_level, max_level):
    """The levels a search tries: from the highest path letter's vertex
    index (at least start_level) to the lowest lamp letter's native level
    (at most max_level).  Raises ValueError when no level holds them all."""
    lo, hi = start_level, max_level
    for letter in letters:
        if isinstance(letter, PathLetter):
            lo = max(lo, _vertex_index(letter.vertex))
        else:
            hi = min(hi, letter.level)
    if lo > hi:
        raise ValueError(f"no level in [{start_level}, {max_level}] holds "
                         "every letter of the word")
    return range(lo, hi + 1)


def check_search(letters, p, start_level, max_level):
    """Raise ValueError for input no search can use (p not prime, a start
    level below 1, no level in range holding every letter, a first level
    whose tower or witnesses exceed the coordinate budget, a path letter
    at G_i, i <= max_level, naming a generator G_i lacks, a lamp letter
    of native level l naming a lamp h_j, j >= p^l, that Lamp(p, l) lacks),
    so that a failure inside the search is a failed check.  Returns the
    levels the search will try."""
    models.PrimeLevel(p, start_level)
    levels = search_levels(letters, start_level, max_level)
    check_budget(p, levels[0], witnesses=True)  # every search builds levels[0]
    for i, letter in enumerate(letters):
        if isinstance(letter, PathLetter) and \
                (level := _vertex_index(letter.vertex)) <= max_level:
            try:
                vertex_data(p, level).model.evaluate(letter.word)
            except KeyError as exc:
                raise ValueError(f"letter {i} at {letter.vertex}: {exc}") from None
        elif isinstance(letter, LampLetter):
            for name, _ in letter.word.syllables:
                if name == "t":
                    continue
                # p^l > j once l reaches j's bit length, so the power
                # stays small however high the native level l
                j = int(name[1:])
                if j >= p ** min(letter.level, j.bit_length()):
                    raise ValueError(
                        f"letter {i} at L{letter.level}: Lamp({p},"
                        f"{letter.level}) has no generator {name}")
    return levels


def separate(letters, p, start_level=1, max_level=4):
    """Find the least level whose joined splitting separates the word.

    Letters alternate PathLetters (words in the path vertices, which embed
    upward unchanged) and LampLetters (folded down from their native
    levels).  A level certifies when the folded word has nonempty normal
    form and a nontrivial image in the level's witness quotient; the search
    is linear so the reported level is the least one.  Returns the verdict
    and, when it is SEPARATED, the certificate (else None): a word that is
    the identity is TRIVIAL, one no level in the range certifies INCONCLUSIVE.
    Raises ValueError when no level in the range holds every letter.
    """
    letters = tuple(letters)
    for letter in letters:
        if not isinstance(letter, (PathLetter, LampLetter)):
            raise ValueError("letters must be PathLetter or LampLetter")
    if all(not letter.word for letter in letters):
        return Verdict.TRIVIAL, None
    natives = {letter.level for letter in letters
               if isinstance(letter, LampLetter)}
    for level in search_levels(letters, start_level, max_level):
        gog, spec = _level_data(p, level)
        nf = normal_form(gog, _level_items(letters, p, level))
        if nf.is_trivial:
            # folding at the letters' own level loses nothing, so an empty
            # form there settles triviality outright
            if not natives or natives == {level}:
                return Verdict.TRIVIAL, None
            continue
        image = _direct_image(letters, p, level, spec)
        if image.is_identity:
            continue
        return Verdict.SEPARATED, SeparationCertificate(
            letters, level, spec, image, nf)
    return Verdict.INCONCLUSIVE, None
