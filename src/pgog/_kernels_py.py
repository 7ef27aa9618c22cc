"""Pure-Python arithmetic kernel: products, polycyclic series, sifts, and
the exhaustive breadth-first closure that tests check the sifts against.

Group elements are flat tuples of small non-negative ints.  A model's
coordinates are laid out by a Layout, the tuple of its block descriptors;
each block owns a contiguous slice of the coordinate tuple and carries its
own multiplication law.

Block descriptor: (kind, p, n, q, off, width) with kind one of the three
codes below; n is an EA block's twist (0 for none), a LAMP block's
number of layers or a MOD block's number of variables, q the modulus of a
Z/q coordinate (0 where there is none), off the first coordinate index
and width the number of coordinates.  Twisted EA blocks carry the
Heisenberg group on (a, [a,b], b), the tower's G_n and the witness target
Fn(p,2).

`mul` and `inv` are the only entry points for products and inverses, and
they interpret the blocks one by one until a layout object has made
HOT_CALLS calls.  That call compiles the layout's straight-line law (see
_laws) and keeps it on the layout, where it serves every later call;
layouts with a MOD block stay interpreted.  Both give equal results on
coordinates in range (`Layout.moduli`).
"""

from functools import cached_property

EA = 0      # F_p^width, componentwise addition; n >= 2 twists it:
            # coordinate off+1 adds u * y, u = a[off] and y = b[off+n]
LAMP = 1    # (u_{i,r} row-major, x_0..x_{w-1}, t), w = (width-1)/(n+1):
            # n twisted layers u_1..u_n over w lamps x, all shifted
            # cyclically by t in Z/q; u_{i,r} (1 < i <= n) is twisted by
            # u_{i-1,r} * y_{p^(i-1)+r}.  n = 0 is the lamplighter, and
            # width 1 (no lamps) the cyclic group Z/q
MOD = 2     # square-zero monomial module acted on by commuting unipotent
            # multipliers, one orbit of each per shift position:
            # (m[r][subset-of-n-variables], a[var][r], t), t in Z/q


# Measured with Python 3.11 on a shared 2-core x86-64 host: importing
# _laws takes ~3 ms in a fresh process without bytecode caches, compiling
# one law pair 0.2-0.6 ms for layouts of 4-19 coordinates, and a compiled
# law saves ~1.4 us per call (one nf-products pass of the benchmark,
# 101,886 calls, replayed three times: 0.22-0.29 s interpreted,
# 0.09-0.13 s compiled).  So the first layout to compile repays its
# ~3.5 ms after ~2,500 calls, and HOT_CALLS is the power of two below:
# the one-off layouts of a short command (at most 363 calls each in
# `run-all`) never pay for the generator.  MOD layouts never compile:
# their interpreted loop skips zero module rows, which straight-line code
# would lose, and they run to thousands of coordinates.
HOT_CALLS = 2048


class Layout(tuple):
    """A block layout: the tuple of its block descriptors, which iterates,
    compares and hashes as that tuple, plus the layout's own arithmetic
    state.  mul_law and inv_law are None until the layout's HOT_CALLS-th
    call to mul or inv compiles both; calls counts the interpreted calls.
    The state belongs to this object: an equal layout built separately
    counts and compiles on its own, and the law goes when the layout does.
    """

    mul_law = inv_law = None
    calls = 0

    @cached_property
    def series(self):
        """The polycyclic series, top first, as (coordinate, place) terms:
        an element's digit at a term is x[coordinate] // place % p.
        Elements whose digits above a term are zero form a subgroup on
        which the term's digit adds mod p.  Acting coordinates come first,
        twisted or module ones last; a Z/q coordinate is split into
        digits, low digit first.
        """
        terms = []
        for kind, p, n, q, off, width in self:
            end = off + width
            if kind == EA:                      # twisted: (u, the rest, off + 1)
                coords = ([off, *range(off + 2, end), off + 1] if n
                          else range(off, end))
            elif kind == LAMP:                  # (digits of t, u_1, lamps, u_2..u_n)
                w = (width - 1) // (n + 1)
                x0 = off + n * w
                coords = [*range(off, min(off + w, x0)), *range(x0, end - 1),
                          *range(off + w, x0)]
            elif kind == MOD:                   # (digits of t, multipliers, module)
                a0 = off + q * (1 << n)
                coords = [*range(a0, end - 1), *range(off, a0)]
            else:
                raise ValueError(f"unknown block kind {kind}")
            place = 1
            while place < q:                    # q is 0 where there is no Z/q
                terms.append((end - 1, place))
                place *= p
            terms += [(c, 1) for c in coords]
        return terms

    @cached_property
    def acting(self):
        """Per block, (off, end, start, stop): the block's coordinates
        [off, end) and its acting ones [start, stop), where the block's
        elements that are zero there form an abelian subgroup.  None for
        plain EA, the twisting u of a twisted one; for LAMP, the whole
        block when it has layers, else the shift t when it has lamps to
        move, else none; the multipliers and t (MOD), leaving the
        square-zero module."""
        spans = []
        for kind, p, n, q, off, width in self:
            end = off + width
            if kind == EA:
                spans.append((off, end, off, off + 1) if n else (off, end, end, end))
            elif kind == LAMP:
                start = off if n else end - 1 if width > 1 else end
                spans.append((off, end, start, end))
            elif kind == MOD:
                spans.append((off, end, off + q * (1 << n), end))
            else:
                raise ValueError(f"unknown block kind {kind}")
        return spans

    @property
    def width(self):
        """The number of coordinates: where the last block ends."""
        return max(off + width for *_, off, width in self)

    @cached_property
    def moduli(self):
        """The modulus of each coordinate: q for a Z/q coordinate, else p."""
        mods = [0] * self.width
        for kind, p, n, q, off, width in self:
            mods[off:off + width] = [p] * width
            if q:
                mods[off + width - 1] = q
        return mods


def _compile(layout):
    if all(block[0] != MOD for block in layout):
        from ._laws import compile_laws
        layout.mul_law, layout.inv_law = compile_laws(layout)


def mul(layout, a, b):
    law = layout.mul_law
    if law:
        return law(a, b)
    calls = layout.calls = layout.calls + 1
    if calls == HOT_CALLS:
        _compile(layout)
    out = [0] * len(a)
    for kind, p, n, q, off, width in layout:
        if kind == EA:
            for i in range(off, off + width):
                out[i] = (a[i] + b[i]) % p
            if n:
                out[off + 1] = (out[off + 1] + a[off] * b[off + n]) % p
        elif kind == LAMP:
            # row i < n is layer u_{i+1} and row n the lamps, w
            # coordinates each, read from b shifted by t; a twisted row i
            # (0 < i < n) adds a's row i-1 times b's lamp p^i + r
            w = (width - 1) // (n + 1)
            tc = off + width - 1
            x0 = tc - w
            t = a[tc]
            ppow = 1
            for i in range(n + 1):
                row = off + i * w
                if 0 < i < n:
                    for r in range(w):
                        s = (r + t) % w
                        out[row + r] = (a[row + r] + b[row + s]
                                        + a[row - w + r] * b[x0 + (ppow + s) % w]) % p
                else:
                    for r in range(w):
                        out[row + r] = (a[row + r] + b[row + (r + t) % w]) % p
                ppow *= p
            out[tc] = (t + b[tc]) % q
        elif kind == MOD:
            dim = 1 << n
            a0 = off + q * dim
            tc = off + width - 1
            t = a[tc]
            for r in range(q):
                row = off + r * dim
                src = off + ((r + t) % q) * dim
                # apply the left factor's multipliers at orbit r to the
                # right factor's shifted module row, then translate; they
                # act linearly, so a zero row leaves a's row as it is
                tmp = b[src:src + dim]
                if not any(tmp):
                    out[row:row + dim] = a[row:row + dim]
                    continue
                tmp = list(tmp)
                for v in range(n):
                    coef = a[a0 + v * q + r]
                    if coef:
                        bit = 1 << v
                        for s in range(dim):
                            if s & bit:
                                tmp[s] = (tmp[s] + coef * tmp[s ^ bit]) % p
                for s in range(dim):
                    out[row + s] = (a[row + s] + tmp[s]) % p
            for v in range(n):
                for r in range(q):
                    out[a0 + v * q + r] = (a[a0 + v * q + r]
                                           + b[a0 + v * q + (r + t) % q]) % p
            out[tc] = (t + b[tc]) % q
        else:
            raise ValueError(f"unknown block kind {kind}")
    return tuple(out)


def inv(layout, a):
    law = layout.inv_law
    if law:
        return law(a)
    calls = layout.calls = layout.calls + 1
    if calls == HOT_CALLS:
        _compile(layout)
    out = [0] * len(a)
    for kind, p, n, q, off, width in layout:
        if kind == EA:
            for i in range(off, off + width):
                out[i] = -a[i] % p
            if n:
                out[off + 1] = (out[off + 1] + a[off] * a[off + n]) % p
        elif kind == LAMP:
            # the base group's inverse, read shifted back by t
            w = (width - 1) // (n + 1)
            tc = off + width - 1
            x0 = tc - w
            t = a[tc]
            ppow = 1
            for i in range(n + 1):
                row = off + i * w
                if 0 < i < n:
                    for r in range(w):
                        s = (r - t) % w
                        out[row + r] = (-a[row + s]
                                        + a[row - w + s] * a[x0 + (ppow + s) % w]) % p
                else:
                    for r in range(w):
                        out[row + r] = -a[row + (r - t) % w] % p
                ppow *= p
            out[tc] = -t % q
        elif kind == MOD:
            dim = 1 << n
            a0 = off + q * dim
            tc = off - 1 + width
            t = a[tc]
            for r in range(q):
                src = off + ((r - t) % q) * dim
                tmp = [a[src + s] for s in range(dim)]
                for v in range(n):
                    coef = -a[a0 + v * q + (r - t) % q] % p
                    if coef:
                        bit = 1 << v
                        for s in range(dim):
                            if s & bit:
                                tmp[s] = (tmp[s] + coef * tmp[s ^ bit]) % p
                row = off + r * dim
                for s in range(dim):
                    out[row + s] = -tmp[s] % p
            for v in range(n):
                for r in range(q):
                    out[a0 + v * q + r] = -a[a0 + v * q + (r - t) % q] % p
            out[tc] = -t % q
        else:
            raise ValueError(f"unknown block kind {kind}")
    return tuple(out)


def closure(layout, identity, gens):
    """Breadth-first closure of the subgroup generated by gens.

    Returns (elements, index, parent, genidx): elements[0] is the
    identity; index maps each element to its position in elements;
    elements[i] == mul(elements[parent[i]], gens[genidx[i]]) for i > 0,
    giving a shortest word for every element.  Deterministic: FIFO over
    discovery order, generators scanned in the given order.  Unbounded:
    the exhaustive reference the sifts are tested against, not a path any
    command takes.
    """
    elements = [identity]
    index = {identity: 0}
    parent = [-1]
    genidx = [-1]
    head = 0
    while head < len(elements):
        cur = elements[head]
        for gi, g in enumerate(gens):
            nxt = mul(layout, cur, g)
            if nxt not in index:
                index[nxt] = len(elements)
                elements.append(nxt)
                parent.append(head)
                genidx.append(gi)
        head += 1
    return elements, index, parent, genidx


def sift(layout, p, terms, table, g):
    """Clear g's digits at `terms`, top first, by left-multiplying with
    the entries of an induced_pcgs table; depths the table has no entry
    for keep their digits.  Returns (depth, exponent, remainder): the
    first such depth with a nonzero digit when the sift reached it, with
    that digit, else (None, 0, remainder).  When `terms` reaches every
    entry of the table, the remainder depends only on the right coset of
    the table's subgroup that g lies in: it is that coset's canonical
    representative (Holt, Eick and O'Brien, 2005, §8.3), and the identity
    exactly when g lies in the subgroup.  A caller that needs no skipped
    depth (models.Pcgs.split) passes only the terms that hold an entry,
    and their entries as the table: the other depths would only be read.
    Outside the kernel, only models.Pcgs calls it."""
    skipped = None, 0
    for d, (c, place) in enumerate(terms):
        e = g[c] // place % p
        if e:
            entry = table[d]
            if entry is not None:
                g = mul(layout, entry[1][e * entry[2] % p], g)
            elif skipped[0] is None:
                skipped = d, e
    return (*skipped, g)


def _support(layout, g):
    # bitmasks of the blocks where g is nonzero and where it acts: g and
    # h commute when no block is in one's first mask and the other's
    # second, since blocks multiply independently
    nonzero = acting = 0
    for i, (off, end, start, stop) in enumerate(layout.acting):
        if any(g[off:end]):
            nonzero |= 1 << i
            if any(g[start:stop]):
                acting |= 1 << i
    return nonzero, acting


def induced_pcgs(layout, gens):
    """Induced polycyclic sequence of <gens> by noncommutative Gaussian
    elimination (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, ch. 8): per depth of the layout's series, None or
    (g, back, u), g of leading exponent 1/u mod p there, back[k] = g^-k.
    Entries' p-th powers and commutators are sifted in too, so the order
    is p^(number of entries).

    It skips only work whose result is known: an identity is never
    sifted (its sift changes nothing); a pair of entries whose blocks
    commute (see _support) forms no commutator; and any other pair
    forms [g, h] = (hg)^-1 gh only when gh != hg, so the trivial
    commutators are never sifted.  Every nontrivial insertion happens
    in the same order as without the skips, so the table is the same.
    """
    p, terms = layout[0][1], layout.series
    table = [None] * len(terms)
    support = [None] * len(terms)
    fresh, done = [], []

    def insert(g):
        if not any(g):
            return
        d, e, g = sift(layout, p, terms, table, g)
        if d is not None:
            back = [None, inv(layout, g)]
            while len(back) <= p:
                back.append(mul(layout, back[-1], back[1]))
            table[d] = (g, back, pow(e, -1, p))
            support[d] = _support(layout, g)
            fresh.append(d)

    for g in gens:
        insert(g)
    while fresh:
        d = fresh.pop()
        g, back, _ = table[d]
        nonzero, acting = support[d]
        insert(back[p])                         # g^-p
        for k in done:
            h_nonzero, h_acting = support[k]
            if nonzero & h_acting or acting & h_nonzero:
                h, h_back, _ = table[k]
                gh = mul(layout, g, h)
                if gh != mul(layout, h, g):     # [g, h] = (hg)^-1 gh
                    insert(mul(layout, mul(layout, back[1], h_back[1]), gh))
        done.append(d)
    return table
