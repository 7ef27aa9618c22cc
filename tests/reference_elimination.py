"""The noncommutative Gaussian elimination without any skipped work: every
p-th power and every commutator of two entries is formed as a product and
sifted in, identities included.  kernel.induced_pcgs skips work whose
result is known; the tests require its table to equal this one entry by
entry."""

from pgog._kernels_py import inv, mul, sift


def induced_pcgs(layout, gens):
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
