"""Pure-Python arithmetic kernel.

Group elements are flat tuples of small non-negative ints.  A model is a
sequence of block descriptors; each block owns a contiguous slice of the
coordinate tuple and carries its own multiplication law.

Block descriptor: (kind, p, n, q, off, width) with kind one of the codes
below, q the cyclic modulus (p**n where relevant), off the first
coordinate index and width the number of coordinates.
"""

EA = 0      # F_p^width, componentwise addition
CYC = 1     # Z/q, one coordinate
HEIS = 2    # mod-p Heisenberg on (a, b, c), 3 coordinates
GN = 3      # (u0, u1, x_0..x_{p^n-1}), twist u0 * y_{p^(n-1)} on u1
FN = 4      # (u_1..u_n, x_0..x_{p^n-1}), twist u_{i-1} * y_{p^(i-1)} on u_i
LAMP = 5    # (x_0..x_{p^n-1}, t), t shifts lamp indices cyclically
EN = 6      # (u_{i,r} row-major, x_0..x_{p^n-1}, t), shifted FN-style base
MOD = 7     # square-zero monomial module acted on by commuting unipotent
            # multipliers, one orbit of each per shift position:
            # (m[r][subset-of-n-variables], a[var][r], t), t in Z/q


def mul(blocks, a, b):
    out = [0] * len(a)
    for kind, p, n, q, off, width in blocks:
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
        elif kind == FN:
            pn = width - n
            x0 = off + n
            out[off] = (a[off] + b[off]) % p
            ppow = p
            for i in range(1, n):
                out[off + i] = (a[off + i] + b[off + i] + a[off + i - 1] * b[x0 + ppow]) % p
                ppow *= p
            for j in range(pn):
                out[x0 + j] = (a[x0 + j] + b[x0 + j]) % p
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
                # right factor's shifted module row, then translate
                tmp = [b[src + s] for s in range(dim)]
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


def inv(blocks, a):
    out = [0] * len(a)
    for kind, p, n, q, off, width in blocks:
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
        elif kind == FN:
            pn = width - n
            x0 = off + n
            out[off] = -a[off] % p
            ppow = p
            for i in range(1, n):
                out[off + i] = (-a[off + i] + a[off + i - 1] * a[x0 + ppow]) % p
                ppow *= p
            for j in range(pn):
                out[x0 + j] = -a[x0 + j] % p
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


def closure(blocks, identity, gens, limit):
    """Breadth-first closure of the subgroup generated by gens.

    Returns (elements, parent, genidx): elements[0] is the identity;
    elements[i] == mul(elements[parent[i]], gens[genidx[i]]) for i > 0,
    giving a shortest word for every element.  Deterministic: FIFO over
    discovery order, generators scanned in the given order.

    Raises ValueError when the subgroup exceeds `limit` elements.
    """
    elements = [identity]
    index = {identity: 0}
    parent = [-1]
    genidx = [-1]
    head = 0
    while head < len(elements):
        cur = elements[head]
        for gi, g in enumerate(gens):
            nxt = mul(blocks, cur, g)
            if nxt not in index:
                if len(elements) >= limit:
                    raise ValueError(
                        f"closure exceeded size guard of {limit} elements")
                index[nxt] = len(elements)
                elements.append(nxt)
                parent.append(head)
                genidx.append(gi)
        head += 1
    return elements, parent, genidx
