"""The normal-form reduction with a recursive merge and no step memo.

A letter pops the syllables it makes trivial, splits the first one it
does not, merges the edge part into the syllables before by a recursive
call, then walks back to the vertex and pops the identity syllable it
re-enters by, where the split's representative goes.  Every step is a
fresh split of a transversal built here, every walk is made one path
vertex at a time, and each letter is evaluated by its vertex model, all
on coordinate tuples: nothing is read from amalgam's numbering, walks or
step memos.  Only the result names each syllable by the path's slot,
since amalgam's forms compare syllables by slot.  amalgam's in-place
merge makes the same steps without the recursion, the re-walk or the
pop; the tests require its normal forms and products to equal these by
value."""

import weakref

from pgog import _kernels_py as kernel
from pgog import amalgam, models
from pgog.words import Word


class _Path:
    """A path's order, vertex models, transversals and entry edges."""

    def __init__(self, gog):
        self.order = amalgam._path_order(gog)
        self.models = {v: gog.vertices[v].model for v in self.order}
        self.transversals = {(eid, t.vertex): t for (eid, _), t
                             in amalgam.build_transversals(gog).items()}
        self.edge = {}
        for eid in gog.graph.edges:
            a, b = gog.graph.ends(eid)
            self.edge[a, b] = self.edge[b, a] = eid

    def walk(self, slots, a, b):
        """The identity syllables entered from a to b, one vertex apart,
        each in its slot of `slots`."""
        order = self.order
        i, j = order.index(a), order.index(b)
        step = 1 if j > i else -1
        return [(slots[self.edge[order[k - step], order[k]], order[k]],
                 self.models[order[k]].identity.coords)
                for k in range(i + step, j + step, step)]


_PATHS = weakref.WeakKeyDictionary()


def _path(gog):
    path = _PATHS.get(gog)
    if path is None:
        path = _PATHS[gog] = _Path(gog)
    return path


class _Reference:

    def __init__(self, gog, head=None, stack=()):
        self.gog = gog
        self.path = _path(gog)
        # names only, never read: amalgam's forms compare slots
        self.slots = amalgam._paths(gog).steps
        self.base = self.path.order[0]
        self.head = (self.path.models[self.base].identity.coords
                     if head is None else head)
        self.stack = list(stack)    # (slot, representative)

    def push(self, vertex, x):
        self._walk(vertex)
        self._merge(x)

    def _walk(self, vertex):
        stack = self.stack
        top = stack[-1][0].vertex if stack else self.base
        stack.extend(self.path.walk(self.slots, top, vertex))

    def _merge(self, x):
        path, stack = self.path, self.stack
        while True:
            if not any(x):
                while stack and not any(stack[-1][1]):
                    stack.pop()
                return
            if not stack:
                self.head = kernel.mul(
                    path.models[self.base].blocks, self.head, x)
                return
            slot, rep = stack.pop()
            if any(rep):
                x = kernel.mul(path.models[slot.vertex].blocks, rep, x)
            s, c = models.Pcgs.split(
                path.transversals[(slot.edge, slot.vertex)], x)
            if any(s):
                break
            x = c
        if any(c):
            self._merge(c)
            self._walk(slot.vertex)
            stack.pop()
        stack.append((slot, s))

    def result(self):
        # every coordinate checked against its vertex model's moduli
        vertex_models = self.path.models
        return amalgam.ReducedWord.from_coords(
            self.gog, vertex_models[self.base].element(self.head).coords,
            [(slot, vertex_models[slot.vertex].element(rep).coords)
             for slot, rep in self.stack])


def normal_form(gog, letters):
    acc = _Reference(gog)
    for vertex, item in letters:
        model = acc.path.models[vertex]
        acc.push(vertex, (model.evaluate(item) if isinstance(item, Word)
                          else item).coords)
    return acc.result()


def nf_multiply(x, y):
    # from x's public readouts, each syllable put back in its slot
    slots = amalgam._paths(x.gog).steps
    acc = _Reference(x.gog, x.head.coords,
                     [(slots[(eid, v)], rep.coords)
                      for v, rep, eid in x.syllables])
    for vertex, element in y.letters():
        acc.push(vertex, element.coords)
    return acc.result()
