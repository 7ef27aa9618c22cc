"""The normal-form reduction with a recursive merge and no step memo.

A letter pops the syllables it makes trivial, splits the first one it
does not, merges the edge part into the syllables before by a recursive
call, then walks back to the vertex and pops the identity syllable it
re-enters by, where the split's representative goes.  Every step is a
fresh split of the transversal.  amalgam's in-place merge makes the same
steps without the recursion, the re-walk or the pop; the tests require
its normal forms and products to equal these by value."""

from pgog import _kernels_py as kernel
from pgog import amalgam, models


class _Reference:

    def __init__(self, gog, head=None, stack=()):
        self.gog = gog
        self.tables = amalgam._paths(gog)
        self.base = self.tables.order[0]
        self.head = (self.tables.models[self.base].identity.coords
                     if head is None else head)
        self.stack = list(stack)    # (slot, representative)

    def push(self, vertex, x):
        self._walk(vertex)
        self._merge(x)

    def _walk(self, vertex):
        stack = self.stack
        stack.extend(self.tables.walk_from[
            stack[-1][0] if stack else None][vertex])

    def _merge(self, x):
        tables, stack = self.tables, self.stack
        while True:
            if not any(x):
                while stack and not any(stack[-1][1]):
                    stack.pop()
                return
            if not stack:
                self.head = kernel.mul(tables.blocks[self.base], self.head, x)
                return
            slot, rep = stack.pop()
            if any(rep):
                x = kernel.mul(tables.blocks[slot.vertex], rep, x)
            s, c = models.Pcgs.split(
                tables.transversals[(slot.edge, slot.vertex)], x)
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
        vertex_models = self.tables.models
        return amalgam.ReducedWord(
            self.gog, self.base,
            vertex_models[self.base].element(self.head).coords,
            [(slot, vertex_models[slot.vertex].element(rep).coords)
             for slot, rep in self.stack])


def normal_form(gog, letters):
    acc = _Reference(gog)
    for vertex, x in amalgam._as_coords(acc.tables, letters):
        acc.push(vertex, x)
    return acc.result()


def nf_multiply(x, y):
    # from x's public readouts, each syllable put back in its slot
    steps = amalgam._paths(x.gog).steps
    acc = _Reference(x.gog, x.head.coords,
                     [(steps[(eid, v)], rep.coords)
                      for v, rep, eid in x.syllables])
    for vertex, element in y.letters():
        acc.push(vertex, element.coords)
    return acc.result()
