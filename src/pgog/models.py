"""Concrete finite p-group models with closed-form arithmetic.

Every model is a sequence of coordinate blocks interpreted by the
arithmetic kernel (see _kernels_py).  Elements are immutable coordinate
tuples tagged with their model; elements of structurally different
models never compare equal.  Enumeration is breadth-first closure with
shortest-word tracking, bounded by a size guard (PGOG_SIZE_GUARD, default
2**20).
"""

import os

from . import _kernels_py as kernel
from ._kernels_py import CYC, EA, EN, FN, GN, HEIS, LAMP, MOD
from .words import Word, gen

DEFAULT_SIZE_GUARD = 2 ** 20


def size_guard():
    return int(os.environ.get("PGOG_SIZE_GUARD", DEFAULT_SIZE_GUARD))


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeLevel:
    """Validated (p, n[, m]) parameter bundle: p prime, level n >= 1, p^n small."""

    def __init__(self, p, n=1, m=None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"level n must be >= 1, got {n}")
        if m is not None and m < 0:
            raise ValueError(f"level m must be >= 0, got {m}")
        if p ** n > 2 ** 20:
            raise ValueError(f"p^n = {p}^{n} exceeds the 2^20 desk-scale cap")
        self.p = p
        self.n = n
        self.m = m


class GroupElement:
    __slots__ = ("model", "coords", "_hash")

    def __init__(self, model, coords):
        self.model = model
        self.coords = coords
        self._hash = hash((model._hash, coords))

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.model == other.model
                and self.coords == other.coords)

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        return self.model.multiply(self, other)

    def __invert__(self):
        return self.model.inverse(self)

    def __pow__(self, k):
        return self.model.power(self, k)

    def __repr__(self):
        return f"{self.model.name}{self.coords}"

    @property
    def is_identity(self):
        return all(c == 0 for c in self.coords)


class ClosureTable:
    """Subgroup elements in BFS order, each with a shortest generator word."""

    def __init__(self, model, gen_names, elements, parent, genidx):
        self.model = model
        self.gen_names = tuple(gen_names)
        self._elements = elements
        self._index = {coords: i for i, coords in enumerate(elements)}
        self._parent = parent
        self._genidx = genidx

    @property
    def order(self):
        return len(self._elements)

    def __len__(self):
        return len(self._elements)

    def __contains__(self, element):
        return element.model == self.model and element.coords in self._index

    def __iter__(self):
        for coords in self._elements:
            yield GroupElement(self.model, coords)

    def word_for(self, element):
        """Shortest known word in the closure generators evaluating to element."""
        if element.model != self.model:
            raise ValueError("element belongs to a different model")
        i = self._index.get(element.coords)
        if i is None:
            raise KeyError(f"{element!r} not in closure")
        letters = []
        while i > 0:
            letters.append((self.gen_names[self._genidx[i]], 1))
            i = self._parent[i]
        return Word(tuple(reversed(letters)))


class FiniteGroupModel:
    """A finite p-group with executable coordinate arithmetic."""

    def __init__(self, name, p, blocks, width, gen_items):
        self.name = name
        self.p = p
        self.blocks = tuple(blocks)
        self.width = width
        self._hash = hash((self.blocks, width, tuple(n for n, _ in gen_items)))
        self.identity = GroupElement(self, (0,) * width)
        self.generators = {n: GroupElement(self, coords) for n, coords in gen_items}
        self._full_closure = None

    def __eq__(self, other):
        return (isinstance(other, FiniteGroupModel)
                and self.blocks == other.blocks
                and self.width == other.width
                and tuple(self.generators) == tuple(other.generators))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.name}>"

    def _own(self, a):
        if not isinstance(a, GroupElement) or a.model != self:
            raise ValueError(f"element {a!r} does not belong to {self.name}")
        return a.coords

    def element(self, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.width:
            raise ValueError(f"{self.name} elements have {self.width} coordinates")
        return GroupElement(self, coords)

    def multiply(self, a, b):
        return GroupElement(self, kernel.mul(self.blocks, self._own(a), self._own(b)))

    def inverse(self, a):
        return GroupElement(self, kernel.inv(self.blocks, self._own(a)))

    def power(self, a, k):
        self._own(a)
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = self.identity
        square = a
        while k:
            if k & 1:
                result = self.multiply(result, square)
            square = self.multiply(square, square)
            k >>= 1
        return result

    def commutator(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        return self.inverse(a) * self.inverse(b) * a * b

    def element_order(self, a):
        self._own(a)
        order = 1
        while not a.is_identity:
            a = self.power(a, self.p)
            order *= self.p
        return order

    def closure(self, generators=None, limit=None):
        """BFS closure of the subgroup generated by `generators`.

        `generators` may be GroupElements or generator names; default is
        every named generator (the whole model).  Raises ValueError when
        the subgroup exceeds the size guard.
        """
        if generators is None:
            if self._full_closure is not None:
                return self._full_closure
            items = list(self.generators.items())
        else:
            items = []
            for g in generators:
                if isinstance(g, str):
                    items.append((g, self.generators[g]))
                else:
                    self._own(g)
                    items.append((f"g{len(items)}", g))
        names = [n for n, _ in items]
        coords = [e.coords for _, e in items]
        elements, parent, genidx = kernel.closure(
            self.blocks, self.identity.coords, coords,
            limit if limit is not None else size_guard())
        table = ClosureTable(self, names, elements, parent, genidx)
        if generators is None:
            self._full_closure = table
        return table

    @property
    def order(self):
        return self.closure().order

    def evaluate(self, word, assignment=None):
        """Evaluate a Word; assignment maps names to elements (default: generators)."""
        assignment = assignment if assignment is not None else self.generators
        result = self.identity
        for name, exp in word.syllables:
            if name not in assignment:
                raise KeyError(f"no image for generator {name}")
            result = result * self.power(assignment[name], exp)
        return result


def ElementaryAbelian(p, names):
    """F_p-vector space with the given basis names."""
    PrimeLevel(p)
    names = list(names)
    k = len(names)
    gens = []
    for i, name in enumerate(names):
        coords = [0] * k
        coords[i] = 1
        gens.append((name, tuple(coords)))
    return FiniteGroupModel(f"EA({p};{','.join(names)})", p,
                            [(EA, p, 0, 0, 0, k)], k, gens)


def CyclicModel(p, n=1, name="z"):
    """Z/p^n on a single coordinate."""
    PrimeLevel(p, n)
    return FiniteGroupModel(f"Cyc({p}^{n})", p, [(CYC, p, n, p ** n, 0, 1)], 1,
                            [(name, (1,))])


def HeisenbergModP(p, names=("x", "y")):
    """Mod-p Heisenberg group: two generators with central commutator.

    names renames the generators (the commutator stays anonymous, reach it
    via model.commutator).
    """
    PrimeLevel(p)
    a, b = names
    return FiniteGroupModel(f"Heis({p};{a},{b})", p, [(HEIS, p, 0, 0, 0, 3)], 3,
                            [(a, (1, 0, 0)), (b, (0, 1, 0))])


def GnModel(p, n):
    """Coordinates (u_{n-1}, u_n, x_0..x_{p^n-1}); twist u_{n-1}*y_{p^(n-1)}.

    Generators k{n-1}, k{n}, h0..h{p^n-1}; order p^(2+p^n).
    """
    PrimeLevel(p, n)
    pn = p ** n
    width = 2 + pn
    gens = [(f"k{n - 1}", (1, 0) + (0,) * pn), (f"k{n}", (0, 1) + (0,) * pn)]
    for j in range(pn):
        coords = [0] * width
        coords[2 + j] = 1
        gens.append((f"h{j}", tuple(coords)))
    return FiniteGroupModel(f"Gn({p},{n})", p, [(GN, p, n, 0, 0, width)], width, gens)


def FnModel(p, n):
    """Coordinates (u_1..u_n, x_0..x_{p^n-1}); twist u_{i-1}*y_{p^(i-1)}, u_0 = 0.

    Generators k1..k{n}, h0..h{p^n-1}; order p^(n+p^n).  Only defined for
    n <= 2: with three or more stacked layers the twisted law stops being
    associative (tests pin a counterexample), so there is no such group.
    Use ChainWitness for witness targets at higher depths.
    """
    PrimeLevel(p, n)
    if n > 2:
        raise ValueError(
            f"FnModel({p},{n}): stacked twists are non-associative for n >= 3; "
            "use ChainWitness instead")
    pn = p ** n
    width = n + pn
    gens = []
    for i in range(n):
        coords = [0] * width
        coords[i] = 1
        gens.append((f"k{i + 1}", tuple(coords)))
    for j in range(pn):
        coords = [0] * width
        coords[n + j] = 1
        gens.append((f"h{j}", tuple(coords)))
    return FiniteGroupModel(f"Fn({p},{n})", p, [(FN, p, n, 0, 0, width)], width, gens)


def LamplighterLevel(p, n):
    """Lamp state x in F_p^(p^n) plus shift t in Z/p^n; t^-1 h_j t = h_{j+1}.

    Generators h0..h{p^n-1}, t; order p^(p^n+n).
    """
    PrimeLevel(p, n)
    pn = p ** n
    width = pn + 1
    gens = []
    for j in range(pn):
        coords = [0] * width
        coords[j] = 1
        gens.append((f"h{j}", tuple(coords)))
    gens.append(("t", (0,) * pn + (1,)))
    return FiniteGroupModel(f"Lamp({p},{n})", p,
                            [(LAMP, p, n, pn, 0, width)], width, gens)


def EnWitnessModel(p, n):
    """Witness target: shifted tower layers u_{i,r} over lamp state and shift.

    Generators k{i}_{r} (1 <= i <= n, 0 <= r < p^n), h0..h{p^n-1}, t;
    order p^(n*p^n + p^n + n).  The top layer k{n}_{r} is central in the
    base by construction.  Only defined for n <= 2, for the same
    associativity reason as FnModel; use ShiftedChainWitness above that.
    """
    PrimeLevel(p, n)
    if n > 2:
        raise ValueError(
            f"EnWitnessModel({p},{n}): stacked twists are non-associative for "
            "n >= 3; use ShiftedChainWitness instead")
    pn = p ** n
    width = n * pn + pn + 1
    gens = []
    for i in range(1, n + 1):
        for r in range(pn):
            coords = [0] * width
            coords[(i - 1) * pn + r] = 1
            gens.append((f"k{i}_{r}", tuple(coords)))
    for j in range(pn):
        coords = [0] * width
        coords[n * pn + j] = 1
        gens.append((f"h{j}", tuple(coords)))
    gens.append(("t", (0,) * (width - 1) + (1,)))
    return FiniteGroupModel(f"En({p},{n})", p,
                            [(EN, p, n, pn, 0, width)], width, gens)


def _chain_witness_parts(p, n):
    """Shared layout for the chain-witness targets.

    The module block holds one square-zero variable y_i per twist level
    i = 2..n, so a depth-i nested commutator of the chain generators
    survives as the monomial y_2*...*y_i while every commutation a vertex
    group demands lands on a square and dies.  Returns (nm, dim, masks)
    where masks[i] is the module coordinate of k{i}'s monomial.
    """
    PrimeLevel(p, n)
    nm = n - 1
    dim = 1 << nm
    masks = {i: (1 << (i - 1)) - 1 for i in range(1, n + 1)}
    return nm, dim, masks


def ChainWitness(p, n):
    """Properness target for depth-n twist chains (any n >= 1).

    Unlike FnModel this works at every depth: generators k1..kn are the
    monomials 1, y_2, y_2*y_3, ... of a square-zero algebra, h{p^(i-1)}
    multiplies by (1 + y_i)^-1, every other h acts trivially, and all h's
    carry an independent elementary-abelian coordinate; c is a separate
    order-p factor.  [k{i-1}, h{p^(i-1)}] = k{i} holds exactly, and no
    unwanted commutation relation is imposed.
    """
    nm, dim, masks = _chain_witness_parts(p, n)
    pn = p ** n
    mwidth = dim + nm + 1
    width = mwidth + pn + 1
    blocks = [(MOD, p, nm, 1, 0, mwidth), (EA, p, 0, 0, mwidth, pn),
              (EA, p, 0, 0, mwidth + pn, 1)]
    gens = []
    for i in range(1, n + 1):
        coords = [0] * width
        coords[masks[i]] = 1
        gens.append((f"k{i}", tuple(coords)))
    for j in range(pn):
        coords = [0] * width
        for v in range(nm):
            if j == p ** (v + 1):
                coords[dim + v] = p - 1
        coords[mwidth + j] = 1
        gens.append((f"h{j}", tuple(coords)))
    gens.append(("c", (0,) * (width - 1) + (1,)))
    return FiniteGroupModel(f"CW({p},{n})", p, blocks, width, gens)


def ShiftedChainWitness(p, n):
    """Properness target for shift-closed depth-n levels (any n >= 1).

    The chain-witness module is induced along the shift orbit Z/p^n: each
    multiplier variable carries a full orbit of positions, h{j} acts at
    the orbit position aligning it with its twist index, and the h's plus
    the shift t additionally generate an honest lamplighter-level factor,
    so the lamp vertex embeds too.
    """
    nm, dim, masks = _chain_witness_parts(p, n)
    pn = p ** n
    mwidth = pn * dim + pn * nm + 1
    width = mwidth + (pn + 1) + 1
    blocks = [(MOD, p, nm, pn, 0, mwidth),
              (LAMP, p, n, pn, mwidth, pn + 1),
              (EA, p, 0, 0, mwidth + pn + 1, 1)]
    gens = []
    for i in range(1, n + 1):
        coords = [0] * width
        coords[masks[i]] = 1                # module orbit r = 0
        gens.append((f"k{i}", tuple(coords)))
    for j in range(pn):
        coords = [0] * width
        for v in range(nm):
            coords[pn * dim + v * pn + (j - p ** (v + 1)) % pn] = p - 1
        coords[mwidth + j] = 1
        gens.append((f"h{j}", tuple(coords)))
    coords = [0] * width
    coords[mwidth - 1] = 1
    coords[mwidth + pn] = 1
    gens.append(("t", tuple(coords)))
    gens.append(("c", (0,) * (width - 1) + (1,)))
    return FiniteGroupModel(f"SCW({p},{n})", p, blocks, width, gens)


def DirectProduct(a, b):
    """Componentwise product; generator names must not collide."""
    if a.p != b.p:
        raise ValueError("factors must share the prime")
    clash = set(a.generators) & set(b.generators)
    if clash:
        raise ValueError(f"generator names collide: {sorted(clash)}")
    blocks = list(a.blocks)
    for kind, p, n, q, off, w in b.blocks:
        blocks.append((kind, p, n, q, off + a.width, w))
    width = a.width + b.width
    gens = [(name, e.coords + (0,) * b.width) for name, e in a.generators.items()]
    gens += [(name, (0,) * a.width + e.coords) for name, e in b.generators.items()]
    return FiniteGroupModel(f"{a.name}x{b.name}", a.p, blocks, width, gens)
