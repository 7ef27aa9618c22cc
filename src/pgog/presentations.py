"""Finite presentations, homomorphisms, coset enumeration, mod-p rank.

A FinitePresentation is the shared currency between concrete models and
graph-of-groups assembly.  coset_enumerate certifies presentation orders
independently of model closure: it is a semi-decision procedure, so a
non-completing run is reported as unknown, never as failure.  mod_p_rank
is the dimension of the mod-p abelianization, i.e. the minimal generator
number of the pro-p completion.
"""

from .models import FiniteGroupModel
from .words import Word, commutator, gen


class FinitePresentation:
    """Generators plus relator words; every relator name must be declared."""

    def __init__(self, generators, relators, name=""):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        declared = set(self.generators)
        self.relators = tuple(relators)
        for r in self.relators:
            missing = r.names() - declared
            if missing:
                raise ValueError(f"relator {r!r} uses undeclared {sorted(missing)}")
        self.name = name or f"<{len(self.generators)} gens, {len(self.relators)} rels>"

    def __repr__(self):
        return f"FinitePresentation({self.name})"


# -- standard presentation families ------------------------------------------

def power_relators(names, p):
    return [gen(g, p) for g in names]


def commuting_relators(names):
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            out.append(commutator(gen(a), gen(b)))
    return out


def elementary_abelian_presentation(p, names, name=""):
    names = list(names)
    return FinitePresentation(
        names, power_relators(names, p) + commuting_relators(names),
        name or f"EA({p};{','.join(names)})")


def cyclic_presentation(p, n, name="z"):
    return FinitePresentation([name], [gen(name, p ** n)], f"Cyc({p}^{n})")


def heisenberg_presentation(p, names=("x", "y")):
    a, b = names
    z = commutator(gen(a), gen(b))
    relators = [gen(a, p), gen(b, p), z ** p,
                commutator(z, gen(a)), commutator(z, gen(b))]
    return FinitePresentation([a, b], relators, f"Heis({p};{a},{b})")


def gn_presentation(p, n):
    """Two chain layers over p^n lamps, twist at lamp index p^(n-1)."""
    pn = p ** n
    lo, hi = f"k{n - 1}", f"k{n}"
    hs = [f"h{j}" for j in range(pn)]
    names = [lo, hi] + hs
    relators = power_relators(names, p) + commuting_relators(hs)
    relators.append(commutator(gen(lo), gen(hi)))
    relators.append(gen(hi, -1) * commutator(gen(lo), gen(hs[p ** (n - 1)])))
    for j in range(pn):
        relators.append(commutator(gen(hi), gen(hs[j])))
        if j != p ** (n - 1):
            relators.append(commutator(gen(lo), gen(hs[j])))
    return FinitePresentation(names, relators, f"Gn({p},{n})")


def fn_presentation(p, n):
    """Full chain k1..kn over p^n lamps, k{i+1} = [k{i}, h at p^i]."""
    pn = p ** n
    ks = [f"k{i}" for i in range(1, n + 1)]
    hs = [f"h{j}" for j in range(pn)]
    names = ks + hs
    relators = power_relators(names, p) + commuting_relators(hs)
    relators += commuting_relators(ks)
    twist_of = {p ** i: i for i in range(1, n)}
    for i in range(1, n):
        relators.append(
            gen(ks[i], -1) * commutator(gen(ks[i - 1]), gen(hs[p ** i])))
    for idx, k in enumerate(ks, start=1):
        for j in range(pn):
            if twist_of.get(j) != idx:
                relators.append(commutator(gen(k), gen(hs[j])))
    return FinitePresentation(names, relators, f"Fn({p},{n})")


def direct_product_presentation(left, right, name=""):
    """Presentation of the direct product: both relator sets plus
    commutation between the factors' generators."""
    overlap = set(left.generators) & set(right.generators)
    if overlap:
        raise ValueError(f"generator names collide: {sorted(overlap)}")
    cross = [commutator(gen(a), gen(b))
             for a in left.generators for b in right.generators]
    return FinitePresentation(
        list(left.generators) + list(right.generators),
        list(left.relators) + list(right.relators) + cross,
        name or f"{left.name} x {right.name}")


def lamplighter_presentation(p, n):
    pn = p ** n
    hs = [f"h{j}" for j in range(pn)]
    names = hs + ["t"]
    relators = power_relators(hs, p) + [gen("t", pn)]
    relators += commuting_relators(hs)
    for j in range(pn):
        relators.append(
            gen(hs[(j + 1) % pn], -1) * ~gen("t") * gen(hs[j]) * gen("t"))
    return FinitePresentation(names, relators, f"Lamp({p},{n})")


# -- homomorphisms -------------------------------------------------------------

class GroupHom:
    """Map from a presentation or model into a model, given on generators."""

    def __init__(self, source, target, mapping, name=""):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self.name = name
        for g, img in self.mapping.items():
            target._own(img)
        missing = set(source.generators) - set(self.mapping)
        if missing:
            raise ValueError(f"no image for generators {sorted(missing)}")

    def __repr__(self):
        label = self.name or "hom"
        return f"<{label}: {getattr(self.source, 'name', self.source)!s} -> {self.target.name}>"

    def image_of(self, name):
        return self.mapping[name]

    def apply(self, word):
        return self.target.evaluate(word, self.mapping)

    def apply_element(self, element):
        """Image of a source-model element (via its stored closure word)."""
        return self.apply(self.source.closure().word_for(element))

    def verify(self, presentation=None, naming=None):
        """Check the hom property; returns a {check, status, violations} report.

        With a presentation (defining relations of the source under
        `naming`), verifies every relator maps to the identity — by
        von Dyck's theorem the generator map then extends to a hom.
        Without one, the source must be a FinitePresentation (its own
        relators are used) or a small model (all multiplication pairs
        are enumerated and compared).
        """
        if presentation is None and isinstance(self.source, FinitePresentation):
            presentation = self.source
        if presentation is not None:
            naming = naming or {g: g for g in presentation.generators}
            assignment = {g: self.mapping[naming[g]] for g in presentation.generators}
            violations = []
            for r in presentation.relators:
                img = self.target.evaluate(r, assignment)
                if not img.is_identity:
                    violations.append({"kind": "relator", "relator": repr(r),
                                       "image": list(img.coords)})
            return _report("hom", violations)
        return self._verify_by_pairs()

    def _verify_by_pairs(self):
        src = self.source
        table = src.closure()
        if table.order ** 2 > 1 << 22:
            raise ValueError(
                f"pair check on {src.name} needs {table.order}^2 products; "
                "supply a certified presentation instead")
        images = {}
        for e in table:
            images[e.coords] = self.apply(table.word_for(e))
        violations = []
        for a in table:
            fa = images[a.coords]
            for b in table:
                if images[(a * b).coords] != fa * images[b.coords]:
                    violations.append({"kind": "pair", "a": list(a.coords),
                                       "b": list(b.coords)})
                    if len(violations) >= 5:
                        return _report("hom", violations)
        return _report("hom", violations)


def evaluate(word, hom):
    return hom.apply(word)


def hom_injective_on(hom, subgroup_generators):
    """True iff the hom is injective on the subgroup the generators span."""
    src = hom.source
    if not isinstance(src, FiniteGroupModel):
        raise ValueError("injectivity check needs a model source")
    named, elements = [], []
    for g in subgroup_generators:
        if isinstance(g, str):
            named.append(g)
            elements.append(src.generators[g])
        else:
            src._own(g)
            named.append(None)
            elements.append(g)
    sub = src.closure(elements)
    images = []
    for name, e in zip(named, elements):
        if name is not None:
            images.append(hom.image_of(name))
        else:
            images.append(hom.apply(src.closure().word_for(e)))
    return hom.target.closure(images).order == sub.order


def check_model_satisfies(presentation, model, naming=None):
    """Relators hold in the model AND the named generators generate it."""
    naming = naming or {g: g for g in presentation.generators}
    assignment = {}
    violations = []
    for g in presentation.generators:
        img = naming[g]
        assignment[g] = model.generators[img] if isinstance(img, str) else img
    for r in presentation.relators:
        image = model.evaluate(r, assignment)
        if not image.is_identity:
            violations.append({"kind": "relator", "relator": repr(r),
                               "image": list(image.coords)})
    sub_order = model.closure(list(assignment.values())).order
    if sub_order != model.order:
        violations.append({"kind": "generation", "subgroup_order": sub_order,
                           "model_order": model.order})
    return _report("model-satisfies", violations,
                   presentation=presentation.name, model=model.name)


def _report(check, violations, **extra):
    report = {"check": check,
              "status": "pass" if not violations else "fail",
              "violations": violations}
    report.update(extra)
    return report


# -- mod-p rank -----------------------------------------------------------------

def mod_p_rank(presentation, p):
    """#generators - rank over F_p of the relator exponent matrix."""
    index = {g: i for i, g in enumerate(presentation.generators)}
    rows = []
    for r in presentation.relators:
        row = [0] * len(index)
        for name, exp in r.syllables:
            row[index[name]] = (row[index[name]] + exp) % p
        if any(row):
            rows.append(row)
    return len(index) - _gf_rank(rows, p)


def _gf_rank(rows, p):
    rank = 0
    cols = len(rows[0]) if rows else 0
    rows = [list(r) for r in rows]
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- coset enumeration ------------------------------------------------------------

class CosetTable:
    """Result of an enumeration attempt: complete flag, order, live rows.

    rows[c][2*i] is the coset reached from c by generator i, rows[c][2*i+1]
    by its inverse.  Row 0 is the subgroup's own coset.  An incomplete
    table carries order None and status "unknown".
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

    @property
    def status(self):
        return "complete" if self.complete else "unknown"

    def trace(self, word, start=0):
        c = start
        for name, sign in word.letters():
            c = self.rows[c][self._col[(name, sign)]]
            if c is None:
                raise ValueError("trace hit an undefined transition")
        return c


def coset_enumerate(presentation, subgroup_words=(), max_cosets=65536):
    """HLT enumeration of cosets of <subgroup_words> in the presented group.

    Deterministic: relators in declaration order, cosets in creation
    order, gaps filled eagerly.  On completion the table is re-verified
    (every relator closes at every coset, every subgroup word fixes
    coset 0), so a complete result is a certificate.
    """
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
