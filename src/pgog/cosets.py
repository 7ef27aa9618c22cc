"""Todd-Coxeter coset enumeration: the presentations' order oracle.

The enumerator is the HLT strategy of Holt, Eick and O'Brien, *Handbook
of Computational Group Theory* (2005), ch. 5: scan every relator at every
coset, defining new cosets to close each scan, and merge coincidences as
they are deduced.  It certifies the order of a presented group (or the
index of a subgroup given by words) independently of any model, and it
is a semi-decision procedure, so a run that reaches max_cosets decides
nothing.  presentations.coset_enumerate imports this module when it is
called: commands that never count cosets never load it.
"""


class CosetTable:
    """Result of an enumeration attempt: complete flag, order, live rows.

    rows[c][2*i] is the coset reached from c by generator i, rows[c][2*i+1]
    by its inverse.  Row 0 is the subgroup's own coset.  An incomplete
    table carries order None.
    """

    def __init__(self, presentation, complete, rows, created):
        self.presentation = presentation
        self.complete = complete
        self.rows = rows
        self.order = len(rows) if complete else None
        self.cosets_created = created
        self._col = {}
        for i, g in enumerate(presentation.generators):
            self._col[(g, 1)] = 2 * i
            self._col[(g, -1)] = 2 * i + 1

    def trace(self, word, start=0):
        c = start
        for name, sign in word.letters():
            c = self.rows[c][self._col[(name, sign)]]
            if c is None:
                raise ValueError("trace hit an undefined transition")
        return c


def enumerate_cosets(presentation, subgroup_words, max_cosets):
    """The body of presentations.coset_enumerate: fill passes until the
    table closes or reaches max_cosets, each followed by a verification
    pass that re-scans everything without filling."""
    gens = presentation.generators
    ncols = 2 * len(gens)
    col = {}
    for i, g in enumerate(gens):
        col[(g, 1)] = 2 * i
        col[(g, -1)] = 2 * i + 1
    rel_paths = [list(r.letters()) for r in presentation.relators]
    sub_paths = [list(w.letters()) for w in subgroup_words]

    table = [[None] * ncols]
    parent = [0]
    dead = 0
    pending = []

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def live_count():
        return len(table) - dead

    def settle():
        nonlocal dead
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            dead += 1
            for c in range(ncols):
                t = table[b][c]
                if t is None:
                    continue
                t = find(t)
                s = table[a][c]
                if s is None:
                    table[a][c] = t
                    u = table[t][c ^ 1]
                    if u is None:
                        table[t][c ^ 1] = a
                    elif find(u) != a:
                        pending.append((find(u), a))
                elif find(s) != t:
                    pending.append((find(s), t))

    def step(c, colidx):
        nxt = table[c][colidx]
        return None if nxt is None else find(nxt)

    def define(c, colidx, d):
        table[c][colidx] = d
        u = table[d][colidx ^ 1]
        if u is None:
            table[d][colidx ^ 1] = c
        elif find(u) != c:
            pending.append((find(u), c))

    def scan(c, path, fill):
        # forward as far as defined, backward as far as defined; close the
        # remaining gap by deduction, coincidence, or (fill) new cosets
        f, b = find(c), find(c)
        i, j = 0, len(path)
        while True:
            while i < j:
                nxt = step(f, col[path[i]])
                if nxt is None:
                    break
                f, i = nxt, i + 1
            while j > i:
                name, sign = path[j - 1]
                prv = step(b, col[(name, -sign)])
                if prv is None:
                    break
                b, j = prv, j - 1
            if i == j:
                if f != b:
                    pending.append((f, b))
                    settle()
                return True
            if i == j - 1:
                define(f, col[path[i]], b)
                settle()
                return True
            if not fill:
                return True
            if live_count() >= max_cosets:
                return False
            d = len(table)
            table.append([None] * ncols)
            parent.append(d)
            define(f, col[path[i]], d)
            settle()
            f, b = find(f), find(b)

    def full_pass(fill):
        idx = 0
        while idx < len(table):
            if find(idx) != idx:
                idx += 1
                continue
            for path in sub_paths if idx == 0 else ():
                if not scan(0, path, fill):
                    return False
            for path in rel_paths:
                if find(idx) != idx:
                    break
                if not scan(idx, path, fill):
                    return False
            if fill and find(idx) == idx:
                for c in range(ncols):
                    if table[idx][c] is not None:
                        continue
                    if live_count() >= max_cosets:
                        return False
                    d = len(table)
                    table.append([None] * ncols)
                    parent.append(d)
                    define(idx, c, d)
                    settle()
                    if find(idx) != idx:
                        break
            idx += 1
        return True

    while True:
        if not full_pass(fill=True):
            return CosetTable(presentation, False, [], len(table))
        # verification pass: re-scan everything without filling; any
        # mismatch queues coincidences and we go around again
        before = (live_count(), dead)
        full_pass(fill=False)
        live = [i for i in range(len(table)) if find(i) == i]
        complete = all(table[i][c] is not None for i in live for c in range(ncols))
        if complete and (live_count(), dead) == before:
            break

    renumber = {c: i for i, c in enumerate(live)}
    rows = [[renumber[find(table[c][x])] for x in range(ncols)] for c in live]
    return CosetTable(presentation, True, rows, len(table))
