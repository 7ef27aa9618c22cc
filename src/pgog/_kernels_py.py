"""Pure-Python arithmetic kernel: products, polycyclic series, sifts, and
the exhaustive breadth-first closure that tests check the sifts against.

Group elements are flat tuples of small non-negative ints.  A model's
coordinates are laid out by a Layout, the tuple of its block descriptors;
each block owns a contiguous slice of the coordinate tuple and carries its
own multiplication law.

Block descriptor: (kind, p, n, q, off, width) with kind one of the codes
below, q the cyclic modulus (p**n where relevant), off the first
coordinate index and width the number of coordinates.

`mul` and `inv` are the only entry points for products and inverses, and
they interpret the blocks one by one until a layout object has made
HOT_CALLS calls.  That call compiles the layout's straight-line law (see
_laws) and keeps it on the layout, where it serves every later call;
layouts with a MOD block stay interpreted.  Both give equal results on
coordinates in range (`Layout.moduli`).
"""

from functools import cached_property

EA = 0      # F_p^width, componentwise addition
CYC = 1     # Z/q, one coordinate
HEIS = 2    # mod-p Heisenberg on (a, b, c), 3 coordinates
GN = 3      # (u0, u1, x_0..x_{p^n-1}), twist u0 * y_{p^(n-1)} on u1
LAMP = 5    # (x_0..x_{p^n-1}, t), t shifts lamp indices cyclically
EN = 6      # (u_{i,r} row-major, x_0..x_{p^n-1}, t): layers u_1..u_n,
            # u_{i,r} twisted by u_{i-1,r} * y_{p^(i-1)+r}, shifted by t
MOD = 7     # square-zero monomial module acted on by commuting unipotent
            # multipliers, one orbit of each per shift position:
            # (m[r][subset-of-n-variables], a[var][r], t), t in Z/q


# Measured with Python 3.11 on a shared 2-core x86-64 host: importing
# _laws takes ~3 ms in a fresh process without bytecode caches, compiling
# one law pair 0.2-0.6 ms for layouts of 4-19 coordinates, and a compiled
# law saves ~1.4 us per call (one nf-products pass of the benchmark,
# 347,594 calls, replayed: 1.00 s interpreted, 0.48 s compiled).  So the
# first layout to compile repays its ~3.5 ms after ~2,500 calls, and
# HOT_CALLS is the power of two below: the one-off layouts of a short
# command (at most 623 calls each in `run-all`) never pay for the
# generator.  MOD layouts never compile: their interpreted loop skips zero
# module rows, which straight-line code would lose, and they run to
# thousands of coordinates.
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
            if kind in (EA, HEIS):              # HEIS: (a, b, c)
                coords = range(off, end)
            elif kind == GN:                    # (u_{n-1}, lamps, u_n)
                coords = [off, *range(off + 2, end), off + 1]
            elif kind in (CYC, LAMP):           # (digits of t, lamps)
                coords = range(off, end - 1)
            elif kind == EN:                    # (digits of t, u_1, lamps, u_2..u_n)
                pn = (width - 1) // (n + 1)
                x0 = off + n * pn
                coords = [*range(off, off + pn), *range(x0, end - 1),
                          *range(off + pn, x0)]
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
    def moduli(self):
        """The modulus of each coordinate: q for a Z/q coordinate, else p."""
        mods = [0] * max(off + width for *_, off, width in self)
        for kind, p, n, q, off, width in self:
            mods[off:off + width] = [p] * width
            if kind in (CYC, LAMP, EN, MOD):
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
        elif kind == CYC:
            out[off] = (a[off] + b[off]) % q
        elif kind == HEIS:
            out[off] = (a[off] + b[off]) % p
            out[off + 1] = (a[off + 1] + b[off + 1]) % p
            out[off + 2] = (a[off + 2] + b[off + 2] + a[off] * b[off + 1]) % p
        elif kind == GN:
            # two layers (u_{n-1}, u_n) over width-2 lamp coordinates;
            # the lamp range may exceed p^n (widened witness windows)
            out[off] = (a[off] + b[off]) % p
            out[off + 1] = (a[off + 1] + b[off + 1] + a[off] * b[off + 2 + p ** (n - 1)]) % p
            for j in range(width - 2):
                out[off + 2 + j] = (a[off + 2 + j] + b[off + 2 + j]) % p
        elif kind == LAMP:
            pn = width - 1
            t = a[off + pn]
            for j in range(pn):
                out[off + j] = (a[off + j] + b[off + (j + t) % pn]) % p
            out[off + pn] = (t + b[off + pn]) % q
        elif kind == EN:
            pn = (width - 1) // (n + 1)
            x0 = off + n * pn
            t = a[x0 + pn]
            for r in range(pn):
                out[off + r] = (a[off + r] + b[off + (r + t) % pn]) % p
            ppow = p
            for i in range(1, n):
                row = off + i * pn
                prev = off + (i - 1) * pn
                for r in range(pn):
                    out[row + r] = (a[row + r] + b[row + (r + t) % pn]
                                    + a[prev + r] * b[x0 + (ppow + r + t) % pn]) % p
                ppow *= p
            for j in range(pn):
                out[x0 + j] = (a[x0 + j] + b[x0 + (j + t) % pn]) % p
            out[x0 + pn] = (t + b[x0 + pn]) % q
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
        elif kind == CYC:
            out[off] = -a[off] % q
        elif kind == HEIS:
            out[off] = -a[off] % p
            out[off + 1] = -a[off + 1] % p
            out[off + 2] = (-a[off + 2] + a[off] * a[off + 1]) % p
        elif kind == GN:
            out[off] = -a[off] % p
            out[off + 1] = (-a[off + 1] + a[off] * a[off + 2 + p ** (n - 1)]) % p
            for j in range(width - 2):
                out[off + 2 + j] = -a[off + 2 + j] % p
        elif kind == LAMP:
            pn = width - 1
            t = a[off + pn]
            for j in range(pn):
                out[off + j] = -a[off + (j - t) % pn] % p
            out[off + pn] = -t % q
        elif kind == EN:
            pn = (width - 1) // (n + 1)
            x0 = off + n * pn
            t = a[x0 + pn]
            # base-group inverse first, then undo the shift by t
            w = [0] * (width - 1)
            for r in range(pn):
                w[r] = -a[off + r] % p
            ppow = p
            for i in range(1, n):
                row = i * pn
                prev = (i - 1) * pn
                for r in range(pn):
                    w[row + r] = (-a[off + row + r]
                                  + a[off + prev + r] * a[x0 + (ppow + r) % pn]) % p
                ppow *= p
            for j in range(pn):
                w[n * pn + j] = -a[x0 + j] % p
            for i in range(n):
                row = i * pn
                for r in range(pn):
                    out[off + row + r] = w[row + (r - t) % pn]
            for j in range(pn):
                out[x0 + j] = w[n * pn + (j - t) % pn]
            out[x0 + pn] = -t % q
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
    exactly when g lies in the subgroup."""
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


def induced_pcgs(layout, gens):
    """Induced polycyclic sequence of <gens> by noncommutative Gaussian
    elimination (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, ch. 8): per depth of the layout's series, None or
    (g, back, u), g of leading exponent 1/u mod p there, back[k] = g^-k.
    Entries' p-th powers and commutators are sifted in too, so the order
    is p^(number of entries).
    """
    p, terms = layout[0][1], layout.series
    table = [None] * len(terms)
    fresh, done = [], []

    def insert(g):
        d, e, g = sift(layout, p, terms, table, g)
        if d is not None:
            back = [None, inv(layout, g)]
            while len(back) <= p:
                back.append(mul(layout, back[-1], back[1]))
            table[d] = (g, back, pow(e, -1, p))
            fresh.append(d)

    for g in gens:
        insert(g)
    while fresh:
        d = fresh.pop()
        g, back, _ = table[d]
        insert(back[p])                         # g^-p
        for h, h_back, _ in map(table.__getitem__, done):   # [g, h]
            insert(mul(layout, mul(layout, mul(layout, back[1], h_back[1]), g), h))
        done.append(d)
    return table
