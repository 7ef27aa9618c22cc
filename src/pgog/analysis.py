"""Improperness detection and edge-count bounds.

Two independent certifying tools for a graph of finite p-groups:

* ``detect_collapse`` proves vertex groups CANNOT all inject into the
  fundamental pro-p group.  It extracts relators saying "generator =
  commutator", and any generator caught in a self-feeding family of such
  relators acquires unbounded lower-central depth, so its image in every
  pro-p quotient is trivial.  Its engine lives in collapse, imported
  when it is called, so `tower verify-all`, which detects no collapse,
  does not load it.
* ``check_edge_bound`` verifies the universal edge-count bound that every
  properly witnessed reduced splitting must satisfy, on the splitting
  its witness specialises, and returns it as the report check
  ``edge-bound``.  It refuses to run without a certified witness, since
  the bound is only meaningful when the vertex groups are known to
  inject, and on a fundamental group of mod-p rank 0, which the bound
  does not cover.
"""

from fractions import Fraction

from . import reports
from .gog import PropernessWitness
from .presentations import abelian_rank


def detect_collapse(presentation, p):
    """Find generators whose lower-central depth diverges, and the residual
    presentation left after they are forced to the identity, as a
    collapse.CollapseReport.

    Sound, not complete: a nonempty collapsed set proves the generators die
    in every pro-p specialisation; an empty one proves nothing.
    """
    from .collapse import find_collapse
    return find_collapse(presentation, p)


def fundamental_rank(gog, p):
    """mod_p_rank(fundamental_presentation(gog), p), without building that
    presentation: its abelianised relators are each vertex presentation's
    on that vertex's columns and, per edge generator g, the row
    iota_1(g) - iota_0(g), since a stable letter's exponents cancel; each
    stable letter adds a column that no row touches (Chiswell, 1976)."""
    columns = {}
    for v in gog.graph.vertices:
        pres = gog.vertices[v].presentation
        if pres is None:
            raise ValueError(f"vertex {v} lacks a certified presentation")
        for g in pres.generators:
            columns[v, g] = len(columns)
    rows = [[(columns[v, g], e) for g, e in r.syllables]
            for v in gog.graph.vertices
            for r in gog.vertices[v].presentation.relators]
    rows += [[(columns[ends[k], name], e if k else -e) for k in (0, 1)
              for name, e in gog.image_word(eid, k, g).syllables]
             for eid, ends in gog.graph.edges.items()
             for g in gog.edges[eid].generators]
    stable = len(gog.graph.edges) - len(gog.graph.tree.edge_ids)
    return abelian_rank(len(columns), rows, p) + stable


def check_edge_bound(witness):
    """The report check ``edge-bound``: the splitting the witness
    specialises against the universal edge-count bound.

    With K the largest edge-group order and rk the minimal generator count
    of the fundamental group's pro-p completion, its mod-p rank (read by
    fundamental_rank off the vertex presentations and the edge maps), a
    witnessed reduced splitting satisfies

        edges <= pK/(p-1) * (rk - 1) + 1
        sum over edges of 1/|G_e| <= p/(p-1) * rk

    Its details hold both sides of each inequality, as Fractions, and
    whether it holds.  Exact rational arithmetic throughout; a certified
    witness is required because the bound presumes the vertex groups
    inject, and rk >= 1 because it presumes a nontrivial fundamental
    group: at rk = 0 the first right side is negative, so even the
    edgeless trivial group would fail it.
    """
    if not isinstance(witness, PropernessWitness):
        raise ValueError("edge bound requires a certified properness witness")
    if not witness.valid:
        raise ValueError("witness failed verification; edge bound not applicable")
    gog = witness.specialisation.gog
    p = witness.specialisation.target.p
    orders = [gog.edges[eid].order for eid in gog.graph.edges]
    edge_count = len(orders)
    max_order = max(orders, default=1)
    rank = fundamental_rank(gog, p)
    if rank == 0:
        raise ValueError("fundamental group has mod-p rank 0; the edge bound "
                         "presumes a nontrivial fundamental group")
    edge_bound = Fraction(p * max_order, p - 1) * (rank - 1) + 1
    edge_sum = sum((Fraction(1, o) for o in orders), Fraction(0))
    rank_side = Fraction(p, p - 1) * rank
    edge_count_ok = edge_count <= edge_bound
    edge_sum_ok = edge_sum <= rank_side
    return reports.make_check(
        "edge-bound", reports.status(edge_count_ok and edge_sum_ok),
        edge_count=edge_count, max_edge_order=max_order, rank=rank,
        edge_bound=edge_bound, edge_sum=edge_sum, rank_side=rank_side,
        edge_count_ok=edge_count_ok, edge_sum_ok=edge_sum_ok)
