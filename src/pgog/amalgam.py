"""Normal forms over path-shaped graphs of finite groups, plus separation.

Every graph the tower assembles is a path, so elements of its fundamental
group carry a canonical alternating form: a head element in the leftmost
vertex group followed by coset-representative syllables walking the path.
A syllable's representative is what the split of a Transversal, the
models.Pcgs of the graph of an edge's two maps, leaves of it (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, §8.3), and the
same split carries the edge-group part across the edge, by the maps the
graph certified when it was built; nothing is enumerated, and normal
forms are reproducible across runs.  Each (entry
edge, vertex) slot of a path remembers the steps it has made, up to a
bound: a step is a pure function of its representative and letter, so a
remembered one is exactly what a fresh split returns.  A syllable is the
pair (slot, representative), so the slot that steps it is at hand.  A
letter merges in place, one loop down the syllable stack, each step
replacing a representative and carrying an edge part into the syllable
before.  The form is empty exactly for the trivial element, solving the
word problem.  The reduction runs on numbers: each coordinate tuple it
meets is numbered once per path, 0 standing for the identity at every
vertex, so a step is remembered under a pair of small ints.  A Word
enters one letter per syllable, which the canonical form cannot tell
from the whole word: each vertex generator and its inverse is numbered
once, when the path's tables are built, so a word is never evaluated
whole, and a syllable of another exponent is evaluated alone.  The
path also remembers its products into the head, up to the same bound,
so the reduction calls the kernel only on a miss: coordinates are read
back only for a step or a head product not yet remembered, and when a
ReducedWord is compared, hashed or read; group elements are made only
when a caller reads the form's head, syllables or letters.

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
from .gog import certified
from .tower import (LEVEL_CACHE, check_budget, joined_witness_shape,
                    joined_witness_specialisation, vertex_data)
from .words import Word, from_letters, gen


# -- transversals ------------------------------------------------------------


# Measured with Python 3.11 on a shared 2-core x86-64 host: one
# nf-products pass of the benchmark (seed 7, 4,000 ops over the level-3
# joined splitting at p = 2), a word entering one syllable at a time,
# makes 151,417 merge steps of only 1,293 distinct (representative,
# letter) pairs.  Its six slot memos then hold 194 KB (sys.getsizeof of
# dicts and key and value tuples); entries x width, bytes: K1@G1 30 x 4,
# 4 KB; K1@G2 119 x 6, 18 KB; K2@G2 29 x 6, 4 KB; K2@G3 886 x 10,
# 133 KB; H3@G3 121 x 10, 18 KB; H3@W 108 x 9, 16 KB.  So a slot of at
# most STEP_MEMO_COORDS coordinates of x, 6,553 entries at width 10,
# holds ~1 MB, ~7.5 times the largest seen.  The pass numbers 120
# tuples, 1,016 coordinates, in 22 KB (its two dicts and the tuples), 30
# of them the letter table's 58 generators and inverses, numbered when
# the tables are built; the numbering, which stops at STEP_MEMO_COORDS
# coordinates, then holds ~1.4 MB, 65 times what the pass meets.  The
# letter tables end the pass with 147 syllables, the 58 and 89 squares
# and cubes of generators or inverses, in 15 KB, at most 44 at a vertex;
# one vertex's table stops at STEP_MEMO_COORDS coordinates of its
# syllables' values, 6,553 entries at width 10, ~0.7 MB.  The pass
# carries 145 distinct (head, x) pairs into the head, 16 heads at G1's
# width 4, and the head memo holds their products in 23 KB; it stops at
# STEP_MEMO_COORDS coordinates of heads and products, 8,192 entries at
# width 4, ~1.8 MB if every head and product were a tuple of its own.
# A second pass misses none of these tables, so it makes no kernel call.
STEP_MEMO_COORDS = 2 ** 16


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
    A Transversal keeps no splits: the reduction remembers its merge
    steps per path (_Steps).
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

    def __repr__(self):
        return (f"<Transversal {self.edge_id}@{self.vertex}: "
                f"{self.coset_count} cosets>")


def build_transversals(gog):
    """Coset representatives for both ends of every edge of a path.

    They use the edge maps the graph certified as injective model
    homomorphisms; a presentation-only end, as in a bracketed graph,
    has none and is refused.
    """
    _path_order(gog)
    homs = gog.edge_homs
    for eid in gog.graph.edges:
        if None in homs[eid]:
            raise ValueError(f"edge {eid} has no certified model maps; "
                             "normal forms need injective edge maps")
    return {(eid, end): Transversal(eid, end, gog.graph.ends(eid)[end],
                                    homs[eid][end], homs[eid][1 - end])
            for eid in gog.graph.edges for end in (0, 1)}


class _Numbering(dict):
    """The coordinate tuples a path's reductions meet, each numbered once.

    numbering[x] is x's number and coords[n] reads a number n > 0 back; 0
    is the identity at every vertex, since a syllable's slot names its
    vertex.  The table numbers tuples of at most STEP_MEMO_COORDS
    coordinates in all, one slot memo's budget; past it a tuple stands
    for itself.  It never forgets or renumbers, so each tuple has one
    form, its number or itself, for the life of the table, and
    coords.get(n, n) reads either back."""

    def __init__(self, identities):
        super().__init__(dict.fromkeys(identities, 0))
        self.coords = {}
        self.used = 0           # coordinates numbered

    def __missing__(self, x):
        if self.used + len(x) > STEP_MEMO_COORDS:
            return x
        self.used += len(x)
        n = self[x] = len(self.coords) + 1
        self.coords[n] = x
        return n


class _Steps(dict):
    """The merge steps at one (entry edge, vertex) slot of a path, named by
    its edge and vertex attributes: (rep, x) -> (s, c), each numbered in
    the path's _Numbering, with rep x = phi(kappa) s for an edge element
    kappa, s the canonical representative and c = psi(kappa) (see
    Transversal).  A step depends on the pair alone, so a remembered one
    is exactly what a fresh split of rep x returns.  A missing step is
    split and kept while the slot holds at most STEP_MEMO_COORDS
    coordinates of x, entries times the vertex width; a full slot still
    serves its hits but takes no new entry.  A trivial c is 0, which ends
    a merge, and identity is the coordinates 0 stands for at the slot's
    vertex.  A slot stands for its place in the path: it equals, and
    hashes as, no other slot, whatever it holds.  It keeps what a step
    reads and writes, the numbering among it, and not the path tables,
    so no cycle keeps a dead graph's tables alive."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __init__(self, transversal, blocks, numbering):
        super().__init__()
        self.edge = transversal.edge_id
        self.vertex = transversal.vertex
        self.identity = transversal.hom.target.identity.coords
        self.transversal = transversal
        self.blocks = blocks
        self.numbering = numbering

    def __missing__(self, key):
        rep, x = key
        numbering = self.numbering
        coords = numbering.coords
        x = coords.get(x, x)
        s, c = self.transversal.split(
            kernel.mul(self.blocks, coords.get(rep, rep), x) if rep else x)
        step = numbering[s], numbering[c]
        if (len(self) + 1) * len(x) <= STEP_MEMO_COORDS:
            self[key] = step
        return step


class _HeadProducts(dict):
    """The products into a path's head: (head, x) -> head x, the head a
    coordinate tuple at the base vertex and x the carried element,
    numbered in the path's _Numbering.  A missing product is one kernel
    multiplication on the base vertex's layout, kept while the memo holds
    at most STEP_MEMO_COORDS coordinates of heads and products, entries
    times twice the base width; a full memo still serves its hits but
    takes no new entry."""

    def __init__(self, blocks, numbering):
        super().__init__()
        self.blocks = blocks
        self.numbering = numbering

    def __missing__(self, key):
        head, x = key
        product = kernel.mul(self.blocks, head,
                             self.numbering.coords.get(x, x))
        if (len(self) + 1) * 2 * len(head) <= STEP_MEMO_COORDS:
            self[key] = product
        return product


class _PathTables:
    """Path layout, vertex models, transversals, the coordinate numbering,
    the letter table, merge steps and head products, built once per
    graph; the last three grow as reductions meet new syllables, steps
    and products, each up to its STEP_MEMO_COORDS budget.

    Never holds the GraphOfGroups, which would keep it, and so its entry
    in _PATHS, alive.
    """

    def __init__(self, gog):
        self.order = order = _path_order(gog)
        self.models = {v: gog.vertices[v].model for v in order}
        self.blocks = {v: model.blocks for v, model in self.models.items()}
        # keyed by the slot (entry edge, vertex): a path has no loops
        self.transversals = {(eid, t.vertex): t for (eid, _), t
                             in build_transversals(gog).items()}
        self.numbering = numbering = _Numbering(
            model.identity.coords for model in self.models.values())
        # letters[v][name, e]: the number of v's syllable name^e.  The
        # generators and their inverses (e = +-1) are read from the
        # model's generator table and cached inverses when the tables are
        # built; other exponents are added as met (see _numbered_letters)
        self.letters = {v: {(name, e): numbering[model.word_coords(
                                gen(name, e))]
                            for name in model.generators for e in (1, -1)}
                        for v, model in self.models.items()}
        self.steps = {slot: _Steps(t, self.blocks[t.vertex], self.numbering)
                      for slot, t in self.transversals.items()}
        # the base vertex's identity, which normal_form starts from, and
        # the products carried into the head
        self.identity = self.models[order[0]].identity.coords
        self.head_products = _HeadProducts(self.blocks[order[0]], numbering)
        # walk_from[top][b]: the identity syllables, (slot, 0), at each
        # vertex after the top syllable's, or the base vertex when top is
        # None, along the path up to b, each in the slot it is entered by;
        # b is a vertex or a slot at it, so a form's syllables are letters
        slot_at = {}
        for eid in gog.graph.edges:
            a, b = gog.graph.ends(eid)
            slot_at[a, b] = self.steps[eid, b]
            slot_at[b, a] = self.steps[eid, a]
        by_vertex = {}
        for i, a in enumerate(order):
            by_vertex[a] = walks = {}
            for j, b in enumerate(order):
                step = 1 if j > i else -1
                walks[b] = tuple((slot_at[order[k - step], order[k]], 0)
                                 for k in range(i + step, j + step, step))
            walks.update((slot, walks[slot.vertex])
                         for slot in self.steps.values())
        self.walk_from = {None: by_vertex[order[0]]}
        self.walk_from.update((slot, by_vertex[slot.vertex])
                              for slot in self.steps.values())


# id(gog) -> its _PathTables, each dropped as its graph dies, before the
# id can name another object; a lookup hashes an int and makes no weakref
_PATHS = {}


def _paths(gog):
    tables = _PATHS.get(id(gog))
    if tables is None:
        tables = _PATHS[id(gog)] = _PathTables(gog)
        weakref.finalize(gog, _PATHS.pop, id(gog))
    return tables


# -- reduced words -----------------------------------------------------------


class ReducedWord:
    """Canonical alternating form of a path fundamental-group element.

    head lives in the leftmost vertex group; each syllable is a coset
    representative in the slot that steps it, the (entry edge, vertex)
    memo of the path's merge steps, so the walk along the path is
    recoverable.  A form keeps its path tables, head as a coordinate
    tuple and its syllables as (slot, representative) pairs numbered in
    the tables, which nf_multiply starts from and nothing changes;
    from_coords makes one from coordinate syllables.  The syllables'
    coordinates are read back when the form is first compared, hashed or
    read, and then kept.  head, syllables, read as (vertex,
    representative, entry edge), and letters() build group elements of
    the vertex models each time they are read.  Forms over one graph are
    equal, and hash alike, when their heads and coordinate syllables are.
    """

    __slots__ = ("gog", "base_vertex", "_tables", "_head", "_stack",
                 "_read")

    def __init__(self, gog, tables, head, stack):
        self.gog = gog
        self.base_vertex = tables.order[0]
        self._tables = tables
        self._head = head
        self._stack = stack
        self._read = None       # the coordinate syllables, once read

    @classmethod
    def from_coords(cls, gog, head, syllables):
        """The form with head coordinates `head` and syllables given as
        (slot, representative coordinates) pairs over the graph's path,
        which it keeps as given."""
        tables = _paths(gog)
        numbering = tables.numbering
        syllables = tuple(syllables)
        word = cls(gog, tables, head,
                   tuple((slot, numbering[rep]) for slot, rep in syllables))
        word._read = syllables
        return word

    @property
    def _syllables(self):
        if self._read is None:
            coords = self._tables.numbering.coords
            self._read = tuple(
                (slot, coords.get(rep, rep) if rep else slot.identity)
                for slot, rep in self._stack)
        return self._read

    @property
    def head(self):
        return models.GroupElement(
            self.gog.vertices[self.base_vertex].model, self._head)

    @property
    def syllables(self):
        vertices = self.gog.vertices
        return tuple((slot.vertex,
                      models.GroupElement(vertices[slot.vertex].model, rep),
                      slot.edge)
                     for slot, rep in self._syllables)

    @property
    def is_trivial(self):
        return not self._stack and not any(self._head)

    def _coord_letters(self):
        # (vertex, coords) of the non-identity head and representatives
        if any(self._head):
            yield self.base_vertex, self._head
        for slot, rep in self._syllables:
            if any(rep):
                yield slot.vertex, rep

    def letters(self):
        """Vertex-tagged elements multiplying left-to-right to the element."""
        vertices = self.gog.vertices
        return [(v, models.GroupElement(vertices[v].model, x))
                for v, x in self._coord_letters()]

    def __eq__(self, other):
        return (isinstance(other, ReducedWord) and self.gog is other.gog
                and self._head == other._head
                and self._syllables == other._syllables)

    def __hash__(self):
        return hash((self._head, self._syllables))

    def __repr__(self):
        if self.is_trivial:
            return "<ReducedWord trivial>"
        return " ".join([f"<ReducedWord head={self._head}",
                         *(f"{slot.vertex}:{rep}"
                           for slot, rep in self._syllables)]) + ">"


def _reduce(tables, head, stack, letters):
    """Right-multiply (vertex, number) letters into the reduced word with
    head coordinates `head` and syllables `stack`, (slot, representative)
    pairs numbered in the path's tables that are changed in place; returns
    the new head, read from the path's head products.  A Word comes as one
    letter per syllable (see _numbered_letters), so a syllable already met
    at a slot is a remembered step.  A letter may name a slot at its
    vertex for the vertex, so a form's syllables are letters too; an
    identity letter changes nothing, as the top syllable is never the
    identity.  Any other letter x first walks from the last syllable's
    vertex, or the base vertex, to its vertex through identity syllables.
    Then it merges in place: each syllable, from the top down, takes the s
    of its slot's step (rep, x) and carries c to the one before it, or to
    the head, which the remembered product of (head, c) replaces, until c
    is trivial; then trailing identity syllables are popped.  A turn of
    the walk never becomes trivial: its rep lies outside the edge image
    that c lies in, so rep c does too."""
    walk_from = tables.walk_from
    head_products = tables.head_products
    for vertex, x in letters:
        if not x:
            continue
        stack.extend(walk_from[stack[-1][0] if stack else None][vertex])
        i = len(stack) - 1
        while i >= 0:
            slot, rep = stack[i]
            s, x = slot[rep, x]
            stack[i] = (slot, s)
            if not x:
                break
            i -= 1
        else:
            head = head_products[head, x]
        while stack and not stack[-1][1]:
            stack.pop()
    return head


def _result(gog, tables, head, stack):
    """The ReducedWord of a reduction's head and numbered stack, the head
    read back from the path's table, so equal heads are one tuple."""
    numbering = tables.numbering
    h = numbering[head]
    return ReducedWord(gog, tables, numbering.coords.get(h, h) if h else head,
                       stack)


def _numbered_letters(tables, letters):
    """(vertex, number) letters of the input letters, read as the
    reduction reaches them.  A GroupElement is one letter, its
    coordinates numbered.  A Word is one letter per syllable, which the
    canonical form cannot tell from the whole word: each is looked up in
    the path's letter table.  A syllable of exponent other than +-1 is
    evaluated and numbered the first time it is met, and kept while the
    vertex's table holds at most STEP_MEMO_COORDS coordinates, entries
    times the vertex width; past that it is evaluated each time.  A
    syllable that is the identity is 0, which the reduction skips."""
    vertex_models = tables.models
    letter_tables = tables.letters
    numbering = tables.numbering
    for i, (vertex, item) in enumerate(letters):
        model = vertex_models.get(vertex)
        if model is None:
            raise ValueError(f"letter {i}: unknown vertex {vertex!r}")
        if isinstance(item, Word):
            table = letter_tables[vertex]
            for syllable in item.syllables:
                x = table.get(syllable)
                if x is None:
                    try:
                        x = numbering[model.word_coords(Word((syllable,)))]
                    except KeyError as exc:
                        raise ValueError(
                            f"letter {i} at {vertex}: {exc}") from None
                    if (len(table) + 1) * model.width <= STEP_MEMO_COORDS:
                        table[syllable] = x
                yield vertex, x
        elif isinstance(item, models.GroupElement):
            if item.model != model:
                raise ValueError(
                    f"letter {i}: element does not belong to vertex {vertex}")
            yield vertex, numbering[item.coords]
        else:
            raise ValueError(f"letter {i}: expected a Word or GroupElement")


def normal_form(gog, letters):
    """Reduce vertex-tagged letters to the canonical alternating form.

    Letters are (vertex id, element-or-Word) pairs multiplied left to
    right; the result is empty exactly when the product is trivial in the
    path's fundamental group.
    """
    tables = _paths(gog)
    stack = []
    head = _reduce(tables, tables.identity, stack,
                   _numbered_letters(tables, letters))
    return _result(gog, tables, head, stack)


def nf_multiply(x, y):
    """Normal form of the product of two reduced words over the same path."""
    if not isinstance(x, ReducedWord) or not isinstance(y, ReducedWord):
        raise ValueError("nf_multiply needs two ReducedWords")
    if x.gog is not y.gog:
        raise ValueError("reduced words live over different graphs")
    # x is already reduced, so the reduction starts from its syllables
    tables = x._tables
    stack = list(x._stack)
    head = _reduce(tables, x._head, stack,
                   [(y.base_vertex, tables.numbering[y._head]), *y._stack])
    return _result(x.gog, tables, head, stack)


# -- separation --------------------------------------------------------------


class PathLetter(namedtuple("PathLetter", "vertex word")):
    """A path-side letter: a Word `word` at the path vertex `vertex` (G<i>)."""

    __slots__ = ()


class LampLetter(namedtuple("LampLetter", "level word")):
    """A lamplighter-side letter at its native level: a Word over the lamp
    generators and the shift."""

    __slots__ = ()


def path_letter(vertex, word):
    """A path letter: one Word at the path vertex `G<i>`, named by its
    index alone, so that `G01` is `G1`."""
    index = _vertex_index(vertex)
    if not isinstance(word, Word):
        raise ValueError(f"path letter at {vertex}: expected a Word")
    return PathLetter(f"G{index}", word)


def lamp_letter(level, item):
    """A lamplighter letter: one Word over the lamp generators and t."""
    if not isinstance(item, Word):
        raise ValueError("lamp letter: expected a Word")
    for name in item.names():
        if name != "t" and not re.fullmatch("h[0-9]+", name):
            raise ValueError(f"lamp letter: unknown generator {name!r}")
    level = int(level)
    if level < 1:
        raise ValueError(f"lamp letter at L{level}: levels start at 1")
    return LampLetter(level, item)


def _vertex_index(vertex):
    if not re.fullmatch("G[0-9]+", vertex):
        raise ValueError(
            f"path letters live at vertices 'G<i>', got {vertex!r}")
    index = int(vertex[1:])
    if index < 1:
        raise ValueError(f"path letter at {vertex}: vertices start at G1")
    return index


def _fold_lamp_word(p, level, word):
    """Project a lamplighter word down to the given level's window."""
    window = p ** level
    return from_letters(
        (f"h{int(name[1:]) % window}" if name.startswith("h") else name, sign)
        for name, sign in word.letters())


@lru_cache(maxsize=LEVEL_CACHE)
def _level_data(p, level):
    """The level's lamp-joined witness map, certified proper: a
    specialisation whose gog is the lamp-joined splitting.  The path
    splitting's witness is not built: no search reads it."""
    spec = joined_witness_specialisation(p, level)[1]
    certified(spec)
    return spec


def _level_items(letters, p, level):
    return [(letter.vertex, letter.word) if isinstance(letter, PathLetter)
            else ("W", _fold_lamp_word(p, level, letter.word))
            for letter in letters]


def _direct_image(letters, p, level, spec):
    image = spec.target.identity
    for vertex, word in _level_items(letters, p, level):
        image = image * spec.vertex_hom(vertex).apply(word)
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
    whose tower or joined witness exceeds the coordinate budget, a path letter
    at G_i, i <= max_level, naming a generator G_i lacks, a lamp letter
    of native level l naming a lamp h_j, j >= p^l, that Lamp(p, l) lacks),
    so that a failure inside the search is a failed check.  Returns the
    levels the search will try."""
    models.PrimeLevel(p, start_level)
    levels = search_levels(letters, start_level, max_level)
    # every search builds levels[0] and its joined witness, and no path
    # witness
    check_budget(p, levels[0], witnesses=False)
    models.budget(*joined_witness_shape(p, levels[0]))
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
        spec = _level_data(p, level)
        nf = normal_form(spec.gog, _level_items(letters, p, level))
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
