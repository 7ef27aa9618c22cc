"""Concrete finite p-group models with closed-form arithmetic.

Every model's coordinates are laid out by a kernel Layout, a tuple of
coordinate blocks that the arithmetic kernel interprets and that keeps
its own law, series and moduli (see _kernels_py).  Elements are immutable
coordinate tuples tagged with their model; elements of structurally
different models never compare equal.  Every induced polycyclic
sequence is a Pcgs, the one object that knows how a subgroup of a model,
or of a product a x b, is laid out and sifted: subgroup orders and
membership read it, and so do homomorphisms (presentations.GroupHom,
through the graph of the hom) and normal forms (amalgam.Transversal).
Enumeration (breadth-first closure, with a shortest word per element) is
left only as the exhaustive reference that tests check the sifts
against; no command calls it.  Models with a lamp window refuse, before
allocating, generators holding more than COORDINATE_BUDGET coordinates
in all; each such family's *_shape function gives what that check reads,
so a caller can check a model without building it.
"""

from functools import cached_property

from . import _kernels_py as kernel
from ._kernels_py import EA, LAMP, MOD
from .words import Word, gen

DESK_CAP = 2 ** 20          # largest prime p, and largest p^n, accepted
COORDINATE_BUDGET = 2 ** 22


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
    """Validated (p, n) parameter bundle: p prime, level n >= 1, p^n small.

    p and n are bounded before p^n is computed or p is tested for
    primality, so an outsized input is refused at once."""

    def __init__(self, p, n=1):
        if p > DESK_CAP:
            raise ValueError(f"p = {p} exceeds the 2^20 desk-scale cap")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if n < 1:
            raise ValueError(f"level n must be >= 1, got {n}")
        if n > 20 or p ** n > DESK_CAP:
            raise ValueError(f"p^n = {p}^{n} exceeds the 2^20 desk-scale cap")
        self.p = p
        self.n = n


class BudgetError(ValueError):
    """Models over the coordinate budget: a usage error, no failed check."""


def budget(name, gens, width):
    """Refuse a model whose generator tuples would hold more than
    COORDINATE_BUDGET coordinates in all, before any is allocated.
    Takes a family's shape, (name, generator count, width), and returns
    the width."""
    if gens * width > COORDINATE_BUDGET:
        raise BudgetError(f"{name} needs {gens} generators of {width} "
                          "coordinates, over the 2^22 coordinate budget")
    return width


class GroupElement:
    __slots__ = ("model", "coords", "_hash")

    def __init__(self, model, coords):
        self.model = model
        self.coords = coords
        self._hash = None           # computed on the first __hash__

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.model == other.model
                and self.coords == other.coords)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.model._hash, self.coords))
        return h

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
        return not any(self.coords)


class ClosureTable:
    """Subgroup elements in BFS order, each with a shortest generator word."""

    def __init__(self, model, gen_names, elements, index, parent, genidx):
        self.model = model
        self.gen_names = tuple(gen_names)
        self._elements = elements
        self._index = index
        self._parent = parent
        self._genidx = genidx

    def __len__(self):
        return len(self._elements)

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


class Pcgs:
    """Induced polycyclic sequence of the subgroup of a, or with b of
    a x b, a's depths first, that coordinate tuples of a or pairs (x, y)
    generate (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, ch. 8).  Its order is p^(a_entries + b_entries), its
    entry counts at a's and at b's depths.  An entry past a's depths is
    some (1, y), y != 1; first_b is the first such y, else None.  `in`
    asks whether an element of a lies in the projection to a."""

    def __init__(self, a, b, gens):
        if b is None:
            layout, self._pad, self._far = a.blocks, (), None
        else:
            if a.p != b.p:
                raise ValueError(f"{a.name} and {b.name}: primes differ")
            layout, self._pad, self._far = (product_blocks(a, b),
                                            b.identity.coords, b.blocks)
            gens = [x + y for x, y in gens]
        table = kernel.induced_pcgs(layout, gens)
        depth = len(a.blocks.series)
        self.a_entries = sum(entry is not None for entry in table[:depth])
        self.b_entries = sum(entry is not None for entry in table[depth:])
        self.order = a.p ** (self.a_entries + self.b_entries)
        self.first_b = next((entry[0][a.width:] for entry in table[depth:]
                             if entry is not None), None)
        self._a, self._p, self._width, self._layout = a, a.p, a.width, layout
        live = [(term, entry) for term, entry
                in zip(layout.series[:depth], table) if entry is not None]
        self._terms = [term for term, _ in live]
        self._entries = [entry for _, entry in live]

    def split(self, x):
        """(s, y) for coordinates x of a, with (x s^-1, y) in the subgroup:
        sifting (x, 1) through a's depths leaves (s, y^-1).  s is the
        canonical representative of x's right coset of the projection to
        a, the identity exactly when x lies in it.  The sift reads only
        the depths that hold an entry: the others keep their digits
        whether read or not.  s has a zero digit at every such depth, so
        split(s) is (s, 1)."""
        _, _, rest = kernel.sift(self._layout, self._p, self._terms,
                                 self._entries, x + self._pad)
        s, y = rest[:self._width], rest[self._width:]
        if any(y):
            y = kernel.inv(self._far, y)
        return s, y

    def __contains__(self, element):
        return element.model == self._a and not any(
            self.split(element.coords)[0])


class FiniteGroupModel:
    """A finite p-group with executable coordinate arithmetic: a name, a
    block layout, and named generators as coordinate tuples.  The prime
    and the number of coordinates are the layout's."""

    def __init__(self, name, blocks, gen_items):
        self.name = name
        self.blocks = kernel.Layout(blocks)
        self.p = self.blocks[0][1]
        self.width = self.blocks.width
        self._hash = hash((self.blocks, tuple(n for n, _ in gen_items)))
        self.identity = GroupElement(self, (0,) * self.width)
        self.generators = {n: GroupElement(self, coords) for n, coords in gen_items}
        self._coords = dict(gen_items)  # evaluate's generator table
        self._inverses = {}             # filled on a name's first inverse

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FiniteGroupModel)
                and self.blocks == other.blocks
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
        for i, (c, m) in enumerate(zip(coords, self.blocks.moduli)):
            if not 0 <= c < m:
                raise ValueError(f"{self.name} coordinate {i} is {c}, "
                                 f"outside [0, {m})")
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
            k >>= 1
            if k:
                square = self.multiply(square, square)
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

    def subgroup(self, generators=None):
        """Subgroup generated by GroupElements or generator names; default
        every named generator (the whole model), whose result is cached."""
        if generators is None:
            return self._whole
        gens = [self.generators[g] if isinstance(g, str) else g
                for g in generators]
        return Pcgs(self, None, [self._own(g) for g in gens])

    @cached_property
    def _whole(self):
        return self.subgroup(list(self.generators))

    def closure(self, generators=None):
        """BFS closure of the subgroup generated by `generators`, the
        exhaustive reference for subgroup orders, membership and element
        images.  Unbounded: it lists every element, so keep it to small
        groups.

        `generators` may be GroupElements or generator names; default is
        every named generator (the whole model).
        """
        if generators is None:
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
        return ClosureTable(self, names, *kernel.closure(
            self.blocks, self.identity.coords, coords))

    @property
    def order(self):
        return self.subgroup().order

    def evaluate(self, word, assignment=None):
        """Evaluate a Word; assignment maps names to elements (default: generators).

        Each syllable x^e is squared and multiplied into the product on
        coordinate tuples, as power() does, without an element per step,
        and the product starts from its first factor, not the identity.
        Without an assignment, or with the generators themselves, x is
        read from this model's own table of generator coordinates, and
        x^-1 from its table of inverses, which holds the names so far
        used with a negative exponent."""
        own = assignment is None or assignment is self.generators
        blocks, mul = self.blocks, kernel.mul
        acc = None
        for name, exp in word.syllables:
            if own:
                x = self._coords.get(name)
            elif name in assignment:
                x = self._own(assignment[name])
            else:
                x = None
            if x is None:
                raise KeyError(f"no image for generator {name}")
            if exp < 0:
                exp = -exp
                if not own:
                    x = kernel.inv(blocks, x)
                elif (y := self._inverses.get(name)) is not None:
                    x = y
                else:
                    x = self._inverses[name] = kernel.inv(blocks, x)
            while exp:
                if exp & 1:
                    acc = x if acc is None else mul(blocks, acc, x)
                exp >>= 1
                if exp:
                    x = mul(blocks, x, x)
        return self.identity if acc is None else GroupElement(self, acc)


def ea_shape(p, k):
    """Shape of an elementary abelian model on k names (see budget)."""
    return f"EA({p};{k} names)", k, k


def ElementaryAbelian(p, names):
    """F_p-vector space with the given basis names."""
    PrimeLevel(p)
    names = list(names)
    k = budget(*ea_shape(p, len(names)))
    gens = []
    for i, name in enumerate(names):
        coords = [0] * k
        coords[i] = 1
        gens.append((name, tuple(coords)))
    return FiniteGroupModel(f"EA({p};{','.join(names)})",
                            [(EA, p, 0, 0, 0, k)], gens)


def CyclicModel(p, n=1, name="z"):
    """Z/p^n on a single coordinate."""
    PrimeLevel(p, n)
    return FiniteGroupModel(f"Cyc({p}^{n})", [(LAMP, p, 0, p ** n, 0, 1)],
                            [(name, (1,))])


def HeisenbergModP(p, names=("x", "y")):
    """Mod-p Heisenberg group: two generators with central commutator.

    Coordinates (a, [a,b], b), one EA block twisted by a * b on the
    commutator; its series, and so its digit order, is a, b, [a,b].
    names renames the generators (the commutator stays anonymous, reach it
    via model.commutator).
    """
    PrimeLevel(p)
    a, b = names
    return FiniteGroupModel(f"Heis({p};{a},{b})", [(EA, p, 2, 0, 0, 3)],
                            [(a, (1, 0, 0)), (b, (0, 0, 1))])


def gn_shape(p, n):
    width = 2 + p ** n
    return f"Gn({p},{n})", width, width


def GnModel(p, n):
    """Coordinates (u_{n-1}, u_n, x_0..x_{p^n-1}); twist u_{n-1}*y_{p^(n-1)}.

    Generators k{n-1}, k{n}, h0..h{p^n-1}; order p^(2+p^n).
    """
    PrimeLevel(p, n)
    pn = p ** n
    width = budget(*gn_shape(p, n))
    gens = [(f"k{n - 1}", (1, 0) + (0,) * pn), (f"k{n}", (0, 1) + (0,) * pn)]
    for j in range(pn):
        coords = [0] * width
        coords[2 + j] = 1
        gens.append((f"h{j}", tuple(coords)))
    return FiniteGroupModel(f"Gn({p},{n})",
                            [(EA, p, 2 + p ** (n - 1), 0, 0, width)], gens)


def fn_shape(p, n):
    width = n + p ** n
    return f"Fn({p},{n})", width, width


def FnModel(p, n):
    """Coordinates (u_1..u_n, x_0..x_{p^n-1}); at n = 2, twist u_1*y_p on u_2.

    Generators k1..k{n}, h0..h{p^n-1}; order p^(n+p^n).  At n = 2 this is
    GnModel(p, 2), one EA block twisted by u_1 * y_p, with the same
    coordinates and generators; at n = 1 it is elementary abelian, one
    plain EA block.  There is no n >= 3:
    a third layer twisted by u_2*y_{p^2} gives a law that is not
    associative ((k1 h_p) h_{p^2} has u_3 = 1, k1 (h_p h_{p^2}) has
    u_3 = 0), so no group has these coordinates.  Use ChainWitness for
    witness targets at higher depths.
    """
    PrimeLevel(p, n)
    if n > 2:
        raise ValueError(
            f"FnModel({p},{n}): stacked twists are non-associative for n >= 3; "
            "use ChainWitness instead")
    pn = p ** n
    width = budget(*fn_shape(p, n))
    gens = []
    for i in range(n):
        coords = [0] * width
        coords[i] = 1
        gens.append((f"k{i + 1}", tuple(coords)))
    for j in range(pn):
        coords = [0] * width
        coords[n + j] = 1
        gens.append((f"h{j}", tuple(coords)))
    twist = 2 + p if n == 2 else 0
    return FiniteGroupModel(f"Fn({p},{n})", [(EA, p, twist, 0, 0, width)], gens)


def lamp_shape(p, n):
    width = p ** n + 1
    return f"Lamp({p},{n})", width, width


def LamplighterLevel(p, n):
    """Lamp state x in F_p^(p^n) plus shift t in Z/p^n; t^-1 h_j t = h_{j+1}.

    Generators h0..h{p^n-1}, t; order p^(p^n+n).
    """
    PrimeLevel(p, n)
    pn = p ** n
    width = budget(*lamp_shape(p, n))
    gens = []
    for j in range(pn):
        coords = [0] * width
        coords[j] = 1
        gens.append((f"h{j}", tuple(coords)))
    gens.append(("t", (0,) * pn + (1,)))
    return FiniteGroupModel(f"Lamp({p},{n})", [(LAMP, p, 0, pn, 0, width)],
                            gens)


def en_shape(p, n):
    width = (n + 1) * p ** n + 1
    return f"En({p},{n})", width, width


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
    width = budget(*en_shape(p, n))
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
    return FiniteGroupModel(f"En({p},{n})", [(LAMP, p, n, pn, 0, width)],
                            gens)


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


def cw_shape(p, n):
    nm, dim, _ = _chain_witness_parts(p, n)
    pn = p ** n
    return f"CW({p},{n})", n + pn + 1, dim + nm + 1 + pn + 1


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
    width = budget(*cw_shape(p, n))
    mwidth = width - pn - 1             # all but the lamps and c
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
    return FiniteGroupModel(f"CW({p},{n})", blocks, gens)


def scw_shape(p, n):
    nm, dim, _ = _chain_witness_parts(p, n)
    pn = p ** n
    return f"SCW({p},{n})", n + pn + 2, pn * dim + pn * nm + 1 + pn + 2


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
    width = budget(*scw_shape(p, n))
    mwidth = width - (pn + 1) - 1       # all but the lamplighter and c
    blocks = [(MOD, p, nm, pn, 0, mwidth),
              (LAMP, p, 0, pn, mwidth, pn + 1),
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
    return FiniteGroupModel(f"SCW({p},{n})", blocks, gens)


def DirectProduct(a, b):
    """Componentwise product; generator names must not collide."""
    if a.p != b.p:
        raise ValueError("factors must share the prime")
    clash = set(a.generators) & set(b.generators)
    if clash:
        raise ValueError(f"generator names collide: {sorted(clash)}")
    gens = [(name, e.coords + (0,) * b.width) for name, e in a.generators.items()]
    gens += [(name, (0,) * a.width + e.coords) for name, e in b.generators.items()]
    return FiniteGroupModel(f"{a.name}x{b.name}", product_blocks(a, b), gens)


def product_blocks(a, b):
    """Layout of a x b: a's blocks, then b's shifted past a's coordinates."""
    return kernel.Layout(a.blocks + tuple(
        (kind, p, n, q, off + a.width, w) for kind, p, n, q, off, w in b.blocks))
