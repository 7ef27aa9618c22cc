"""Line-oriented text format for presentations, graphs of groups, witnesses,
and tagged words.

A document is a sequence of statements, one per line; `#` starts a comment
and blank lines are skipped.

    p 2                         # default prime for model references
    group name                  # open a named presentation block
    gens a b c                  # declare generators (inside a block)
    rel a^2                     # relator; [a,b] is the commutator
    rel [a,b]=c                 # equation sugar: relator c^-1*[a,b]
    graph name                  # open a graph-of-groups block
    vertex V1 : Heisenberg(a1, b1)
    edge e1 : EA(u, v) from V1 to V2 with d0: u->b1, v->[a1,b1] ; d1: ...
    witness W : Fn(n=2) map V1.a1 -> h0, ...
    word j := G1:k1 L1:t        # vertex-tagged letters for separation

Expressions multiply with `*`, take integer powers with `^`, bracket with
`[x,y]`, and group with parentheses; `1` is the empty word.  Model
references name a built-in family: EA(names...), Heisenberg(a, b),
Cyclic(n), Gn(n), Fn(n), En(n), K(n), Lamp(n); each accepts `p=<prime>`
to override the document default.  Errors carry the line and column.
"""

import re

from . import models
from . import presentations as P
from .gog import Graph, GraphOfGroups, Specialisation, VertexData
from .tower import lamp_names
from .words import IDENTITY, commutator, gen


class DslError(ValueError):
    """Syntax or validation error, pinned to a line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Line:
    """Cursor over one logical line."""

    def __init__(self, text, number):
        self.text = text
        self.number = number
        self.i = 0

    def error(self, message, column=None):
        raise DslError(message, self.number,
                       self.i + 1 if column is None else column)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t":
            self.i += 1

    def done(self):
        self.skip_ws()
        return self.i >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def match(self, literal):
        self.skip_ws()
        if self.text.startswith(literal, self.i):
            self.i += len(literal)
            return True
        return False

    def take(self, literal):
        if not self.match(literal):
            self.error(f"expected {literal!r}")

    def name(self, what="a name"):
        self.skip_ws()
        j = self.i
        if j < len(self.text) and (self.text[j].isalpha() or self.text[j] == "_"):
            while j < len(self.text) and (self.text[j].isalnum()
                                          or self.text[j] == "_"):
                j += 1
            out, self.i = self.text[self.i:j], j
            return out
        self.error(f"expected {what}")

    def integer(self, what="an integer"):
        self.skip_ws()
        j = self.i
        if j < len(self.text) and self.text[j] == "-":
            j += 1
        k = j
        while k < len(self.text) and "0" <= self.text[k] <= "9":
            k += 1
        if k == j:
            self.error(f"expected {what}")
        out, self.i = int(self.text[self.i:k]), k
        return out


# -- word expressions ---------------------------------------------------------


def _expr(ln):
    word = _factor(ln)
    while ln.match("*"):
        word = word * _factor(ln)
    return word


def _factor(ln):
    word = _atom(ln)
    if ln.match("^"):
        word = word ** ln.integer("an exponent")
    return word


def _atom(ln):
    c = ln.peek()
    if c == "[":
        ln.take("[")
        left = _expr(ln)
        ln.take(",")
        right = _expr(ln)
        ln.take("]")
        return commutator(left, right)
    if c == "(":
        ln.take("(")
        inner = _expr(ln)
        ln.take(")")
        return inner
    if c == "1":
        ln.take("1")
        return IDENTITY
    return gen(ln.name("a generator, bracket, or 1"))


# -- model references ---------------------------------------------------------


def _ref_args(ln):
    """`(arg, ...)` where each arg is `key=value` or a bare name/integer."""
    args, kwargs = [], {}
    if not ln.match("("):
        return args, kwargs
    if ln.match(")"):
        return args, kwargs
    while True:
        ln.skip_ws()
        if ln.peek().isdigit() or ln.peek() == "-":
            args.append(ln.integer())
        else:
            nm = ln.name("an argument")
            if ln.match("="):
                if ln.peek().isdigit() or ln.peek() == "-":
                    kwargs[nm] = ln.integer()
                else:
                    kwargs[nm] = ln.name("a value")
            else:
                args.append(nm)
        if ln.match(")"):
            return args, kwargs
        ln.take(",")


def _prime_of(ctx, kwargs, ln):
    p = kwargs.pop("p", None)
    if p is None:
        p = ctx.prime
    if p is None:
        ln.error("no prime in scope: pass p=<prime> or add a 'p <int>' line")
    if not isinstance(p, int):
        ln.error(f"p must be an integer, got {p!r}")
    return p


def _level_of(args, kwargs, ln, family):
    if "n" in kwargs:
        n = kwargs.pop("n")
    elif len(args) == 1:
        n = args.pop()
    else:
        ln.error(f"arity mismatch: {family} takes one level, "
                 f"as {family}(n) or {family}(n=...)")
    if not isinstance(n, int):
        ln.error(f"arity mismatch: {family} level must be an integer")
    return n


def _no_leftovers(args, kwargs, ln, family):
    if args or kwargs:
        ln.error(f"arity mismatch: unexpected arguments to {family}: "
                 f"{args + sorted(kwargs)}")


def _names_only(args, ln, family):
    for a in args:
        if not isinstance(a, str):
            ln.error(f"arity mismatch: {family} takes generator names")
    return list(args)


def _build_ea(ctx, args, kwargs, ln):
    p = _prime_of(ctx, kwargs, ln)
    names = _names_only(args, ln, "EA")
    _no_leftovers([], kwargs, ln, "EA")
    return (models.ElementaryAbelian(p, names),
            P.elementary_abelian_presentation(p, names))


def _build_heisenberg(ctx, args, kwargs, ln):
    p = _prime_of(ctx, kwargs, ln)
    names = _names_only(args, ln, "Heisenberg")
    _no_leftovers([], kwargs, ln, "Heisenberg")
    if len(names) != 2:
        ln.error("arity mismatch: Heisenberg takes exactly two generator names")
    return (models.HeisenbergModP(p, tuple(names)),
            P.heisenberg_presentation(p, tuple(names)))


def _parametric(model_of, presentation_of, family):
    def build(ctx, args, kwargs, ln):
        p = _prime_of(ctx, kwargs, ln)
        n = _level_of(args, kwargs, ln, family)
        _no_leftovers(args, kwargs, ln, family)
        return model_of(p, n), presentation_of(p, n) if presentation_of else None
    return build


def _build_k(ctx, args, kwargs, ln):
    p = _prime_of(ctx, kwargs, ln)
    n = _level_of(args, kwargs, ln, "K")
    _no_leftovers(args, kwargs, ln, "K")
    if n < 1:
        ln.error("K levels start at 1")
    models.PrimeLevel(p, n)
    names = [f"k{n}"] + lamp_names(p, n)
    return (models.ElementaryAbelian(p, names),
            P.elementary_abelian_presentation(p, names, name=f"K({p},{n})"))


_BUILTINS = {
    "EA": _build_ea,
    "Heisenberg": _build_heisenberg,
    "Cyclic": _parametric(models.CyclicModel, P.cyclic_presentation, "Cyclic"),
    "Gn": _parametric(models.GnModel, P.gn_presentation, "Gn"),
    "Fn": _parametric(models.FnModel, P.fn_presentation, "Fn"),
    "En": _parametric(models.EnWitnessModel, None, "En"),
    "K": _build_k,
    "Lamp": _parametric(models.LamplighterLevel, P.lamplighter_presentation,
                        "Lamp"),
}


def _model_ref(ctx, ln):
    col = ln.i + 1
    nm = ln.name("a model name")
    args, kwargs = _ref_args(ln)
    builder = _BUILTINS.get(nm)
    if builder is None:
        ln.error(f"unknown model name {nm!r} (expected one of "
                 f"{', '.join(sorted(_BUILTINS))})", column=col)
    try:
        return builder(ctx, args, kwargs, ln)
    except DslError:
        raise
    except ValueError as exc:           # the family's own refusal
        ln.error(str(exc))


# -- document assembly --------------------------------------------------------


class DslDocument:
    """Everything a parsed document defines, keyed by declared name."""

    def __init__(self):
        self.prime = None
        self.presentations = {}
        self.graphs = {}
        self.witnesses = {}
        self.words = {}


class _OpenGraph:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.vertices = {}
        self.edges = {}
        self.edge_models = {}
        self.edge_maps = {}


class _Parser:
    def __init__(self):
        self.doc = DslDocument()
        self.prime = None
        self.pres_name = None
        self.pres_gens = []
        self.pres_rels = []
        self.graph = None
        self.last_graph = None
        self.word_at = {}           # word name -> (line, column) of its body

    def _close_presentation(self, ln):
        if self.pres_name is None:
            return
        try:
            pres = P.FinitePresentation(self.pres_gens, self.pres_rels,
                                        name=self.pres_name)
        except ValueError as exc:
            raise DslError(str(exc), ln.number, 1) from None
        self.doc.presentations[self.pres_name] = pres
        self.pres_name, self.pres_gens, self.pres_rels = None, [], []

    def _close_graph(self):
        g = self.graph
        if g is None:
            return
        try:
            graph = Graph(list(g.vertices), g.edges)
            gog = GraphOfGroups(graph, g.vertices, g.edge_models, g.edge_maps)
        except ValueError as exc:
            raise DslError(str(exc), g.line, 1) from None
        self.doc.graphs[g.name] = gog
        self.last_graph = g.name
        self.graph = None

    def _close_blocks(self, ln):
        self._close_presentation(ln)
        self._close_graph()

    # statement handlers

    def stmt_p(self, ln):
        value = ln.integer("a prime")
        if self.prime is not None:
            ln.error("the prime is already set for this document")
        try:
            models.PrimeLevel(value)
        except ValueError as exc:
            ln.error(str(exc) if value > models.DESK_CAP
                     else f"{value} is not prime")
        self.prime = self.doc.prime = value

    def stmt_group(self, ln):
        self._close_blocks(ln)
        name = ln.name("a presentation name")
        if name in self.doc.presentations:
            ln.error(f"duplicate presentation name {name!r}")
        self.pres_name = name

    def _ensure_presentation(self, ln):
        if self.pres_name is None:
            if self.graph is not None:
                ln.error("gens/rel lines cannot appear inside a graph block")
            if "main" in self.doc.presentations:
                ln.error("duplicate presentation name 'main'")
            self.pres_name = "main"

    def stmt_gens(self, ln):
        self._ensure_presentation(ln)
        if self.pres_rels:
            ln.error("gens lines must precede rel lines")
        while not ln.done():
            name = ln.name("a generator name")
            if name in self.pres_gens:
                ln.error(f"duplicate generator {name!r}")
            self.pres_gens.append(name)
        if not self.pres_gens:
            ln.error("gens line declares no generators")

    def stmt_rel(self, ln):
        self._ensure_presentation(ln)
        word = _expr(ln)
        if ln.match("="):
            word = ~_expr(ln) * word
        undeclared = word.names() - set(self.pres_gens)
        if undeclared:
            ln.error(f"relator uses undeclared {sorted(undeclared)}")
        self.pres_rels.append(word)

    def stmt_graph(self, ln):
        self._close_blocks(ln)
        name = ln.name("a graph name")
        if name in self.doc.graphs:
            ln.error(f"duplicate graph name {name!r}")
        self.graph = _OpenGraph(name, ln.number)

    def _ensure_graph(self, ln):
        if self.graph is None:
            ln.error("vertex/edge lines need an open 'graph <name>' block")
        return self.graph

    def stmt_vertex(self, ln):
        g = self._ensure_graph(ln)
        vid = ln.name("a vertex id")
        if vid in g.vertices:
            ln.error(f"duplicate vertex id {vid!r}")
        ln.take(":")
        model, pres = _model_ref(self, ln)
        g.vertices[vid] = VertexData(model, pres)

    def _edge_end_maps(self, ln, model):
        maps = {}
        if not model.generators:
            return maps
        while True:
            name = ln.name("an edge generator")
            if name not in model.generators:
                ln.error(f"{name!r} is not a generator of the edge group")
            ln.take("->")
            maps[name] = _expr(ln)
            if not ln.match(","):
                break
        missing = set(model.generators) - set(maps)
        if missing:
            ln.error(f"edge map misses generators {sorted(missing)}")
        return maps

    def stmt_edge(self, ln):
        g = self._ensure_graph(ln)
        eid = ln.name("an edge id")
        if eid in g.edges:
            ln.error(f"duplicate edge id {eid!r}")
        ln.take(":")
        model, _ = _model_ref(self, ln)
        ln.take("from")
        v0 = ln.name("a vertex id")
        ln.take("to")
        v1 = ln.name("a vertex id")
        for v in (v0, v1):
            if v not in g.vertices:
                ln.error(f"unknown vertex {v!r}")
        ln.take("with")
        ln.take("d0")
        ln.take(":")
        d0 = self._edge_end_maps(ln, model)
        ln.take(";")
        ln.take("d1")
        ln.take(":")
        d1 = self._edge_end_maps(ln, model)
        g.edges[eid] = (v0, v1)
        g.edge_models[eid] = model
        g.edge_maps[eid] = (d0, d1)

    def stmt_witness(self, ln):
        self._close_blocks(ln)
        if self.last_graph is None:
            ln.error("witness lines need a preceding graph block")
        gog = self.doc.graphs[self.last_graph]
        name = ln.name("a witness name")
        if name in self.doc.witnesses:
            ln.error(f"duplicate witness name {name!r}")
        ln.take(":")
        target, _ = _model_ref(self, ln)
        ln.take("map")
        vertex_maps = {v: {} for v in gog.graph.vertices}
        while True:
            v = ln.name("a vertex id")
            if v not in vertex_maps:
                ln.error(f"unknown vertex {v!r}")
            ln.take(".")
            gname = ln.name("a generator name")
            if gname not in gog.vertices[v].model.generators:
                ln.error(f"{gname!r} is not a generator of vertex {v}")
            ln.take("->")
            word = _expr(ln)
            try:
                vertex_maps[v][gname] = target.evaluate(word)
            except KeyError as exc:
                ln.error(f"witness image: {exc.args[0]}")
            if not ln.match(","):
                break
        try:
            spec = Specialisation(gog, target, vertex_maps, name=name)
        except ValueError as exc:
            raise DslError(str(exc), ln.number, 1) from None
        self.doc.witnesses[name] = spec

    def stmt_word(self, ln):
        self._close_blocks(ln)
        name = ln.name("a word name")
        if name in self.doc.words:
            ln.error(f"duplicate word name {name!r}")
        ln.take(":=")
        ln.skip_ws()
        self.word_at[name] = (ln.number, ln.i + 1)
        self.doc.words[name] = _letters(ln)

    def _check_words(self):
        # the rules `separate` applies, at the document's prime (2 without
        # a `p` line, as for separate's --p), over the levels from 1 to the
        # highest a letter names: a word fails here exactly when separate
        # refuses it at every --max-level
        if not self.doc.words:
            return
        from .amalgam import PathLetter, check_search
        p = self.doc.prime or 2
        for name, letters in self.doc.words.items():
            top = max(int(letter.vertex[1:]) if isinstance(letter, PathLetter)
                      else letter.level for letter in letters)
            try:
                check_search(letters, p, 1, max(top, 1))
            except ValueError as exc:
                raise DslError(str(exc), *self.word_at[name]) from None

    def run(self, text):
        handlers = {
            "p": self.stmt_p, "group": self.stmt_group,
            "gens": self.stmt_gens, "rel": self.stmt_rel,
            "graph": self.stmt_graph, "vertex": self.stmt_vertex,
            "edge": self.stmt_edge, "witness": self.stmt_witness,
            "word": self.stmt_word,
        }
        final = _Line("", 1)
        for number, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            if not body.strip():
                continue
            ln = _Line(body.rstrip(), number)
            keyword = ln.name("a statement keyword")
            handler = handlers.get(keyword)
            if handler is None:
                ln.error(f"unknown statement {keyword!r}", column=1)
            handler(ln)
            if not ln.done():
                ln.error("trailing input after statement")
            final = _Line("", number)
        self._close_blocks(final)
        self._check_words()
        return self.doc


def parse_dsl(text):
    """Parse a document into presentations, graphs, witnesses, and words."""
    return _Parser().run(text)


def _letters(ln):
    """The tagged letters filling the rest of a line: the body of a word."""
    from .amalgam import lamp_letter, path_letter
    letters = []
    while not ln.done():
        tag = ln.name("a letter tag (G<i> or L<level>)")
        ln.take(":")
        word = _expr(ln)
        try:
            if re.fullmatch("L[0-9]+", tag):
                letters.append(lamp_letter(int(tag[1:]), word))
            else:
                letters.append(path_letter(tag, word))
        except ValueError as exc:
            ln.error(str(exc))
    if not letters:
        ln.error("word defines no letters")
    return tuple(letters)


def parse_word(text):
    """Parse a standalone letter sequence like `G1:k1 L1:t`.

    The text is the body of one `word` statement.  A comment mark or a
    line break, which would end that statement in a document, is
    rejected.  Error columns count from the start of the text.
    """
    for column, char in enumerate(text, 1):
        if char in "#\n\r":
            raise DslError(f"{char!r} cannot appear in a word", 1, column)
    return _letters(_Line(text, 1))
