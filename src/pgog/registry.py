"""Canonical example objects and the runnable example registry.

Builders here reconstruct the splittings the test-suite and CLI treat as
reference objects: two improper lines whose edge maps entangle generators
into commutator cycles, and a properly witnessed free-product line.  The
tower-built paths and their witnesses are registered lazily to keep import
costs low.

Each registry entry couples a builder with the claim it demonstrates and
the outcome it is pinned to; `run_example` executes one entry and
`run_all` aggregates every entry matching a glob, in registry order.
"""

from collections import namedtuple
from fnmatch import fnmatch
from importlib import resources

from . import models
from . import presentations as P
from . import reports
from .analysis import detect_collapse, fundamental_rank
from .gog import (Graph, GraphOfGroups, Specialisation, VertexData,
                  certified, fundamental_presentation,
                  verify_properness_witness)
from .words import commutator, gen


def _heis_vertex(p, names):
    return VertexData(models.HeisenbergModP(p, names),
                      P.heisenberg_presentation(p, names))


def free_product_line(p):
    """Two one-generator vertices joined over the trivial group."""
    graph = Graph(["L", "R"], {"e": ("L", "R")})
    data = {
        "L": VertexData(models.ElementaryAbelian(p, ["a"]),
                        P.elementary_abelian_presentation(p, ["a"])),
        "R": VertexData(models.ElementaryAbelian(p, ["b"]),
                        P.elementary_abelian_presentation(p, ["b"])),
    }
    return GraphOfGroups(graph, data, {"e": models.ElementaryAbelian(p, [])},
                         {"e": ({}, {})})


def improper_heisenberg_chain(p, levels):
    """Path of Heisenberg vertices; each edge glues the left vertex's second
    generator to the right commutator and the left commutator to the right
    vertex's first generator.  Proper over any single edge, improper as a
    whole: the inner generators are forced into arbitrarily deep commutators.
    """
    if levels < 2:
        raise ValueError("the chain needs at least two vertices")
    names = [(f"a{i}", f"b{i}") for i in range(1, levels + 1)]
    vertices = {f"V{i + 1}": _heis_vertex(p, pair)
                for i, pair in enumerate(names)}
    graph = Graph([f"V{i}" for i in range(1, levels + 1)],
                  {f"e{i}": (f"V{i}", f"V{i + 1}") for i in range(1, levels)})
    edge_models, edge_maps = {}, {}
    for i in range(1, levels):
        al, bl = names[i - 1]
        ar, br = names[i]
        edge_models[f"e{i}"] = models.ElementaryAbelian(p, ["u", "v"])
        edge_maps[f"e{i}"] = (
            {"u": gen(bl), "v": commutator(gen(al), gen(bl))},
            {"u": commutator(gen(ar), gen(br)), "v": gen(ar)})
    return GraphOfGroups(graph, vertices, edge_models, edge_maps)


def improper_two_edge_line(p):
    """Three-vertex line, improper although each single edge is proper.

    The middle vertex is a product of two Heisenberg groups; the two edge
    maps tie the four x-generators into the cycle
    x1 -> x3 -> x4 -> x2 -> x1 of commutator definitions.
    """
    mid_pres = P.direct_product_presentation(
        P.heisenberg_presentation(p, ("x2", "y2")),
        P.heisenberg_presentation(p, ("x3", "y3")))
    mid_model = models.DirectProduct(
        models.HeisenbergModP(p, ("x2", "y2")),
        models.HeisenbergModP(p, ("x3", "y3")))
    graph = Graph(["L", "M", "R"], {"e1": ("L", "M"), "e2": ("M", "R")})
    vertex_data = {
        "L": _heis_vertex(p, ("x1", "y1")),
        "M": VertexData(mid_model, mid_pres),
        "R": _heis_vertex(p, ("x4", "y4")),
    }
    edge_models = {"e1": models.ElementaryAbelian(p, ["u1", "v1"]),
                   "e2": models.ElementaryAbelian(p, ["u2", "v2"])}
    edge_maps = {
        "e1": ({"u1": gen("x1"),
                "v1": commutator(gen("x1"), gen("y1"))},
               {"u1": commutator(gen("x2"), gen("y2")),
                "v1": gen("x3")}),
        "e2": ({"u2": gen("x2"),
                "v2": commutator(gen("x3"), gen("y3"))},
               {"u2": commutator(gen("x4"), gen("y4")),
                "v2": gen("x4")}),
    }
    return GraphOfGroups(graph, vertex_data, edge_models, edge_maps)


def free_product_witness(p):
    """The free-product line's direct-product witness, verified."""
    target = models.ElementaryAbelian(p, ["x", "y"])
    return verify_properness_witness(Specialisation(
        free_product_line(p), target,
        {"L": {"a": target.generators["x"]},
         "R": {"b": target.generators["y"]}},
        name="free-line-witness"))


def shipped_document(name="heisenberg_chain.gog"):
    """Parse a DSL file shipped inside the package."""
    from .dsl import parse_dsl
    text = resources.files("pgog.data").joinpath(name).read_text()
    return parse_dsl(text)


# -- runnable entries ----------------------------------------------------------


class ExampleEntry(namedtuple("ExampleEntry", "id claim expected run")):
    """A named runnable demonstration pinned to an expected outcome:
    `expected` is the aggregate outcome ("pass" or "skip"), `run` maps a
    params dict to a list of checks."""

    __slots__ = ()

    def __repr__(self):
        return f"<ExampleEntry {self.id}: expect {self.expected}>"


def _chain_runner(n):
    def run(params):
        p = params.get("p", 2)
        gog = improper_heisenberg_chain(p, n)
        report = detect_collapse(fundamental_presentation(gog), p)
        expected = {f"a{i}" for i in range(2, n + 1)}
        expected |= {f"b{i}" for i in range(1, n)}
        return [
            reports.make_check(
                "diverging-set",
                reports.status(set(report.collapsed) == expected),
                collapsed=list(report.collapsed), expected=sorted(expected)),
            reports.make_check(
                "residual-rank", reports.status(report.residual_rank == 2),
                residual_rank=report.residual_rank,
                residual_generators=list(report.residual.generators)),
        ]
    return run


def _two_edge_runner(params):
    p = params.get("p", 2)
    gog = improper_two_edge_line(p)
    report = detect_collapse(fundamental_presentation(gog), p)
    expected = {"x1", "x2", "x3", "x4"}
    return [reports.make_check(
        "diverging-set", reports.status(set(report.collapsed) == expected),
        collapsed=list(report.collapsed), expected=sorted(expected))]


def _single_edge_skip(params):
    return [reports.make_check(
        "single-edge-properness", reports.SKIP,
        reason="each one-edge subgraph of the two-edge line is claimed to be "
               "a proper amalgam on its own; no witness construction for "
               "Heisenberg amalgams ships here, so the claim is recorded "
               "without a machine check")]


def _free_line_runner(params):
    return reports.witness_checks(free_product_witness(params.get("p", 2)))


def _tower_level(params, fallback=2):
    p = params.get("p", 2)
    return p, params.get("n", fallback if p == 2 else 1)


def _path_witness_runner(params):
    from .tower import path_witness_specialisation
    witness = certified(path_witness_specialisation(*_tower_level(params))[1])
    witness_check, bound = reports.witness_checks(witness)
    return [witness_check,
            reports.make_check("vertex-orders", reports.PASS,
                               image_orders=witness.vertex_image_orders),
            bound]


def _joined_witness_runner(params):
    from .tower import joined_witness_specialisation
    gog, spec = joined_witness_specialisation(
        *_tower_level(params, fallback=1))
    witness = certified(spec)
    witness_check, bound = reports.witness_checks(witness)
    image_order = witness.vertex_image_orders["W"]
    order = gog.vertices["W"].model.order
    return [witness_check,
            reports.make_check("lamplighter-injective",
                               reports.status(image_order == order),
                               image_order=image_order, vertex_order=order),
            bound]


def _retraction_runner(params):
    from .tower import build_level, check_retraction_square
    p = params.get("p", 2)
    levels = (2, 3) if p == 2 else (2,)
    return [check_retraction_square(build_level(p, n)) for n in levels]


def _transition_runner(params):
    from .tower import (check_transition_maps, composed_transition_images,
                        double_fold_images)
    p = params.get("p", 2)
    pairs = [(0, 1), (1, 0), (1, 1), (2, 0)]
    checks = [check_transition_maps(p, n, m) for n, m in pairs]
    for n, m in ((0, 1), (1, 0)):
        composed = composed_transition_images(p, n, m)
        direct = double_fold_images(p, n, m)
        mismatches = [g for g in direct
                      if tuple(composed[g].letters()) != tuple(direct[g].letters())]
        checks.append(reports.make_check(
            f"composed-fold-n{n}-m{m}",
            reports.status(not mismatches and set(composed) == set(direct)),
            generators=len(direct), mismatches=mismatches))
    return checks


def _two_generation_runner(params):
    from .tower import check_two_generation
    p, n = _tower_level(params)
    return [{**check_two_generation(p, n), "name": "two-generation"}]


def _certification_runner(params):
    p = params.get("p", 2)
    n = params.get("n", 1)
    # Fn(p, 2) is the only stacked-twist model, whatever the level
    pairs = [("level-group", models.GnModel(p, n), P.gn_presentation(p, n)),
             ("path-witness", models.FnModel(p, 2), P.fn_presentation(p, 2)),
             ("heisenberg", models.HeisenbergModP(p),
              P.heisenberg_presentation(p)),
             ("lamplighter", models.LamplighterLevel(p, n),
              P.lamplighter_presentation(p, n))]
    checks = [{**P.check_model_satisfies(pres, model),
               "name": f"satisfies {label}"} for label, model, pres in pairs]
    for label, model, pres in pairs[:1] + pairs[2:3]:
        # an enumeration that ran out of cosets has decided nothing
        table = P.coset_enumerate(pres)
        checks.append(reports.make_check(
            f"coset-count {label}",
            reports.status(table.order == model.order) if table.complete
            else reports.UNKNOWN,
            cosets=table.order, closure_order=model.order))
    return checks


def _normal_form_runner(params):
    import random

    from .amalgam import build_transversals, nf_multiply, normal_form
    from .tower import build_graphs
    p = params.get("p", 2)
    path = build_graphs(p, 2, 0).path
    counts = {key[0] + f"@{t.vertex}": t.coset_count
              for key, t in build_transversals(path).items()}
    rng = random.Random(7)
    vertices = list(path.graph.vertices)

    def random_form():
        letters = []
        for _ in range(rng.randrange(1, 4)):
            v = rng.choice(vertices)
            names = list(path.vertices[v].model.generators)
            letters.append((v, path.vertices[v].model.evaluate(
                gen(rng.choice(names)) ** rng.choice((1, -1)))))
        return normal_form(path, letters), letters

    inverses = associative = trials = 25
    inv_ok = assoc_ok = 0
    for _ in range(trials):
        x, letters = random_form()
        xi = normal_form(path, [(v, ~e) for v, e in reversed(letters)])
        inv_ok += nf_multiply(x, xi).is_trivial
        y, _ = random_form()
        z, _ = random_form()
        assoc_ok += (nf_multiply(nf_multiply(x, y), z)
                     == nf_multiply(x, nf_multiply(y, z)))
    return [
        reports.make_check("transversal-counts", reports.PASS, **counts),
        reports.make_check("inverses-cancel",
                           reports.status(inv_ok == inverses),
                           ok=inv_ok, trials=inverses),
        reports.make_check("products-associate",
                           reports.status(assoc_ok == associative),
                           ok=assoc_ok, trials=associative),
    ]


def _bracketing_runner(params):
    from .gog import bracket_subgraph
    from .tower import build_graphs
    p = params.get("p", 2)
    path = build_graphs(p, 3, 0).path
    bracketed = bracket_subgraph(path, ["G2", "G3"])
    full = fundamental_rank(path, p)
    folded = fundamental_rank(bracketed, p)
    return [reports.make_check(
        "bracketed-rank", reports.status(full == folded),
        full_rank=full, bracketed_rank=folded,
        bracketed_vertices=list(bracketed.graph.vertices))]


def _separation_runner(params):
    from .amalgam import lamp_letter, path_letter, separate
    p = params.get("p", 2)
    letters = [path_letter("G1", gen("k1")), lamp_letter(1, gen("t"))]
    verdict, cert = separate(letters, p, max_level=params.get("max_level", 4))
    if cert is None:
        return [reports.make_check("certificate", reports.FAIL,
                                   verdict=verdict.name.lower())]
    return [reports.make_check(
        "certificate", reports.status(not cert.image.is_identity
                                      and cert.reevaluate() == cert.image),
        level=cert.level, target=cert.specialisation.target.name,
        image=list(cert.image.coords))]


def _shipped_chain_runner(params):
    doc = shipped_document()
    gog = doc.graphs["chain"]
    reference = improper_heisenberg_chain(2, 3)
    parsed = detect_collapse(fundamental_presentation(gog), 2)
    expected = detect_collapse(fundamental_presentation(reference), 2)
    same_shape = (list(gog.graph.vertices) == list(reference.graph.vertices)
                  and dict(gog.graph.edges) == dict(reference.graph.edges))
    return [
        reports.make_check("parses", reports.PASS,
                           vertices=list(gog.graph.vertices),
                           edges=sorted(gog.graph.edges)),
        reports.make_check(
            "matches-reference",
            reports.status(same_shape
                           and parsed.collapsed == expected.collapsed
                           and parsed.residual_rank == expected.residual_rank),
            collapsed=list(parsed.collapsed),
            residual_rank=parsed.residual_rank),
    ]


ENTRIES = tuple(
    [ExampleEntry(
        f"chains/improper-n{n}",
        f"the {n}-vertex Heisenberg chain collapses onto its end generators",
        reports.PASS, _chain_runner(n))
     for n in (2, 3, 4, 5)]
    + [
        ExampleEntry(
            "lines/two-edge-collapse",
            "the two-edge line with commutator-cycled edge maps kills all "
            "four x-generators",
            reports.PASS, _two_edge_runner),
        ExampleEntry(
            "lines/single-edge-properness",
            "each single edge of the two-edge line is a proper amalgam",
            reports.SKIP, _single_edge_skip),
        ExampleEntry(
            "lines/free-product-witness",
            "the trivial-edge line is properly witnessed by the direct "
            "product and meets the edge-count bound",
            reports.PASS, _free_line_runner),
        ExampleEntry(
            "tower/path-witness",
            "the level path embeds into its finite witness model",
            reports.PASS, _path_witness_runner),
        ExampleEntry(
            "tower/joined-witness",
            "the path joined with the lamplighter vertex embeds into its "
            "finite witness model, injectively on the lamplighter",
            reports.PASS, _joined_witness_runner),
        ExampleEntry(
            "tower/retraction-squares",
            "lamp folding commutes with vertex folding and retracts the "
            "level inclusions",
            reports.PASS, _retraction_runner),
        ExampleEntry(
            "tower/transition-maps",
            "tail-to-tail fold maps are homomorphisms retracting the tail "
            "inclusions",
            reports.PASS, _transition_runner),
        ExampleEntry(
            "tower/two-generation",
            "one lamp and the shift generate the whole lamplighter level",
            reports.PASS, _two_generation_runner),
        ExampleEntry(
            "tower/bracketing",
            "collapsing a sub-path into one vertex preserves the minimal "
            "generator count",
            reports.PASS, _bracketing_runner),
        ExampleEntry(
            "models/certification",
            "each closed-form model satisfies its presentation, and coset "
            "counts over the trivial subgroup match closure orders",
            reports.PASS, _certification_runner),
        ExampleEntry(
            "amalgam/normal-forms",
            "transversal counts, inverse cancellation, and associativity "
            "hold on the two-vertex path",
            reports.PASS, _normal_form_runner),
        ExampleEntry(
            "separation/mixed-word",
            "a vertex letter times a shift letter is certified nontrivial "
            "at the first level",
            reports.PASS, _separation_runner),
        ExampleEntry(
            "dsl/shipped-chain",
            "the shipped chain file parses to the reference improper chain",
            reports.PASS, _shipped_chain_runner),
    ])

_BY_ID = {entry.id: entry for entry in ENTRIES}


def example_ids():
    return [entry.id for entry in ENTRIES]


def _aggregate(checks):
    """An example's outcome: fail beats unknown beats pass beats skip."""
    rank = (reports.FAIL, reports.UNKNOWN, reports.PASS, reports.SKIP).index
    return min((c["status"] for c in checks), key=rank, default=reports.PASS)


def _entry_checks(entry, params):
    checks = reports.guarded("execution", lambda: entry.run(params))
    outcome = _aggregate(checks)
    # an undecided example neither meets nor misses its expected outcome
    status = (reports.UNKNOWN if outcome == reports.UNKNOWN
              else reports.status(outcome == entry.expected))
    checks.append(reports.make_check(
        "expected-outcome", status,
        expected=entry.expected, outcome=outcome, claim=entry.claim))
    return checks


def run_example(example_id, **params):
    """Run one registered example and report its checks."""
    entry = _BY_ID.get(example_id)
    if entry is None:
        raise ValueError(f"unregistered example id {example_id!r}; "
                         f"known ids: {', '.join(example_ids())}")
    report = reports.Report(command=f"run {example_id}", parameters=params)
    report.extend(_entry_checks(entry, params))
    return report


def run_all(pattern="*", **params):
    """Run every registered example matching the glob, in registry order."""
    entries = [entry for entry in ENTRIES if fnmatch(entry.id, pattern)]
    if not entries:
        raise ValueError(f"no example id matches {pattern!r}; "
                         f"known ids: {', '.join(example_ids())}")
    report = reports.Report(command=f"run-all {pattern}", parameters=params)
    for entry in entries:
        for check in _entry_checks(entry, params):
            report.add(f"{entry.id}: {check['name']}", check["status"],
                       **check["details"])
    return report
