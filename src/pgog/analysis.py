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
  properly witnessed reduced splitting must satisfy.  It refuses to run
  without a certified witness, since the bound is only meaningful when
  the vertex groups are known to inject, and on a fundamental group of
  mod-p rank 0, which the bound does not cover.
"""

from collections import namedtuple
from fractions import Fraction

from .gog import PropernessWitness, fundamental_presentation
from .presentations import mod_p_rank


def detect_collapse(presentation, p):
    """Find generators whose lower-central depth diverges, and the residual
    presentation left after they are forced to the identity, as a
    collapse.CollapseReport.

    Sound, not complete: a nonempty collapsed set proves the generators die
    in every pro-p specialisation; an empty one proves nothing.
    """
    from .collapse import find_collapse
    return find_collapse(presentation, p)


class BoundReport(namedtuple(
        "BoundReport",
        "edge_count max_edge_order rank edge_bound edge_sum rank_side "
        "edge_count_ok edge_sum_ok")):
    """Both edge-count inequalities for one witnessed splitting; the
    bounds and sums are Fractions."""

    __slots__ = ()

    @property
    def passed(self):
        return self.edge_count_ok and self.edge_sum_ok

    def __repr__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"<BoundReport {verdict}: {self.edge_count} edges <= "
                f"{self.edge_bound}, sum {self.edge_sum} <= {self.rank_side}>")


def check_edge_bound(gog, witness):
    """Check the splitting against the universal edge-count bound.

    With K the largest edge-group order and rk the minimal generator count
    of the fundamental group, a witnessed reduced splitting satisfies

        edges <= pK/(p-1) * (rk - 1) + 1
        sum over edges of 1/|G_e| <= p/(p-1) * rk

    Exact rational arithmetic throughout; a certified witness is required
    because the bound presumes the vertex groups inject, and rk >= 1
    because it presumes a nontrivial fundamental group: at rk = 0 the
    first right side is negative, so even the edgeless trivial group
    would fail it.
    """
    if not isinstance(witness, PropernessWitness):
        raise ValueError("edge bound requires a certified properness witness")
    if not witness.valid:
        raise ValueError("witness failed verification; edge bound not applicable")
    if witness.specialisation.gog is not gog:
        raise ValueError("witness certifies a different graph of groups")
    p = witness.specialisation.target.p
    orders = [gog.edges[eid].order for eid in gog.graph.edges]
    edge_count = len(orders)
    max_order = max(orders, default=1)
    rank = mod_p_rank(fundamental_presentation(gog), p)
    if rank == 0:
        raise ValueError("fundamental group has mod-p rank 0; the edge bound "
                         "presumes a nontrivial fundamental group")
    edge_bound = Fraction(p * max_order, p - 1) * (rank - 1) + 1
    edge_sum = sum((Fraction(1, o) for o in orders), Fraction(0))
    rank_side = Fraction(p, p - 1) * rank
    return BoundReport(edge_count, max_order, rank, edge_bound, edge_sum,
                       rank_side, edge_count <= edge_bound,
                       edge_sum <= rank_side)
