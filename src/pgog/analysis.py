"""Improperness detection and edge-count bounds.

Two independent certifying tools for a graph of finite p-groups:

* ``detect_collapse`` proves vertex groups CANNOT all inject into the
  fundamental pro-p group.  It extracts relators saying "generator =
  commutator", and any generator caught in a self-feeding family of such
  relators acquires unbounded lower-central depth, so its image in every
  pro-p quotient is trivial.
* ``check_edge_bound`` verifies the universal edge-count bound that every
  properly witnessed reduced splitting must satisfy.  It refuses to run
  without a certified witness: the bound is only meaningful when the
  vertex groups are known to inject.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .gog import PropernessWitness, fundamental_presentation
from .presentations import FinitePresentation, mod_p_rank
from .words import from_letters


class BracketRule(namedtuple("BracketRule", "defined left right")):
    """A relator asserting ``defined = [left, right]``."""

    __slots__ = ()

    def __repr__(self):
        return f"{self.defined} = [{self.left!r}, {self.right!r}]"


def _inverse_letters(letters):
    return tuple((name, -exp) for name, exp in reversed(letters))


def _commutator_splits(letters):
    """Yield (u, v) with letters spelling u^-1 v^-1 u v, as Words."""
    m = len(letters)
    if m < 4 or m % 2:
        return
    for a in range(1, m // 2):
        b = m // 2 - a
        if b < 1:
            break
        head_u, head_v = letters[:a], letters[a:a + b]
        tail_u = letters[a + b:a + b + a]
        tail_v = letters[a + b + a:]
        if (tail_u == _inverse_letters(head_u)
                and tail_v == _inverse_letters(head_v)):
            yield from_letters(tail_u), from_letters(tail_v)


def extract_bracket_rules(presentation):
    """Bracket rules from relators shaped like g = [u, v] or [u, v] = g.

    Every cyclic rotation of each relator and of its inverse is scanned, so
    the rule is found no matter how the defining relator was spelled.
    Commutation relators ([g, h] alone) and power relators have even letter
    count and never match.
    """
    rules, seen = [], set()
    for relator in presentation.relators:
        for word in (relator, ~relator):
            letters = tuple(word.letters())
            m = len(letters)
            if m < 5 or m % 2 == 0:
                continue
            for i in range(m):
                (name, exp), rest = letters[i], letters[i + 1:] + letters[:i]
                for u, v in _commutator_splits(rest):
                    # x^-1 [u,v] says x = [u,v]; x [u,v] says x = [v,u]
                    left, right = (u, v) if exp < 0 else (v, u)
                    key = (name, tuple(left.letters()), tuple(right.letters()))
                    if key not in seen:
                        seen.add(key)
                        rules.append(BracketRule(name, left, right))
    return tuple(rules)


def _diverging_set(rules):
    """Largest set of generators whose lower-central depth grows without
    bound under the rules.

    A generator stays in the set only while some rule defining it has a
    side made entirely of set members: that side's depth then exceeds the
    set's minimum, so every member's depth rises each round.  Pruning to
    the greatest such set is exactly the cycle-plus-propagation criterion:
    each survivor sits in, or is fed by, a cycle of bracket rules.
    """
    defined_by = {}
    for rule in rules:
        defined_by.setdefault(rule.defined, []).append(rule)
    diverging = set(defined_by)
    changed = True
    while changed:
        changed = False
        for name in sorted(diverging):
            justified = any(
                set(rule.left.names()) <= diverging
                or set(rule.right.names()) <= diverging
                for rule in defined_by[name])
            if not justified:
                diverging.discard(name)
                changed = True
    return diverging


def _depth_map(rules, generators, diverging):
    """Least fixpoint of depth(defined) >= min-depth(left) + min-depth(right),
    starting from depth 1, with diverging generators pinned at infinity."""
    depth = {g: math.inf if g in diverging else 1 for g in generators}
    live = [r for r in rules if r.defined not in diverging]
    limit = (len(generators) + 1) * (len(rules) + 1) + 4
    for _ in range(limit):
        changed = False
        for rule in live:
            bound = (min(depth[n] for n in rule.left.names())
                     + min(depth[n] for n in rule.right.names()))
            if bound > depth[rule.defined]:
                if math.isinf(bound):   # fully diverging side: pruning missed it
                    raise RuntimeError("divergence classification incomplete")
                depth[rule.defined] = bound
                changed = True
        if not changed:
            return depth
    raise RuntimeError("depth fixpoint failed to stabilise")


def _residual_presentation(presentation, collapsed, name):
    keep = [g for g in presentation.generators if g not in collapsed]
    relators, seen = [], set()
    for relator in presentation.relators:
        word = from_letters((n, e) for n, e in relator.letters()
                            if n not in collapsed)
        key = tuple(word.letters())
        if word and key not in seen:
            seen.add(key)
            relators.append(word)
    return FinitePresentation(keep, relators, name=name)


class CollapseReport(namedtuple(
        "CollapseReport",
        "rules depths collapsed residual residual_rank")):
    """Outcome of divergence analysis on one presentation: the bracket
    rules, each generator's depth, the collapsed generators, and the
    residual presentation with its mod-p rank."""

    __slots__ = ()

    @property
    def improper(self):
        return bool(self.collapsed)

    def __repr__(self):
        state = f"collapsed={list(self.collapsed)}" if self.collapsed else "clean"
        return f"<CollapseReport {state}, residual rank {self.residual_rank}>"


def detect_collapse(presentation, p):
    """Find generators whose lower-central depth diverges, and the residual
    presentation left after they are forced to the identity.

    Sound, not complete: a nonempty collapsed set proves the generators die
    in every pro-p specialisation; an empty one proves nothing.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    rules = extract_bracket_rules(presentation)
    diverging = _diverging_set(rules)
    depths = _depth_map(rules, presentation.generators, diverging)
    collapsed = tuple(sorted(diverging))
    label = presentation.name or "presentation"
    residual = _residual_presentation(presentation, diverging,
                                      name=f"residual({label})")
    return CollapseReport(rules, depths, collapsed, residual,
                          mod_p_rank(residual, p))


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
    because the bound presumes the vertex groups inject.
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
    edge_bound = Fraction(p * max_order, p - 1) * (rank - 1) + 1
    edge_sum = sum((Fraction(1, o) for o in orders), Fraction(0))
    rank_side = Fraction(p, p - 1) * rank
    return BoundReport(edge_count, max_order, rank, edge_bound, edge_sum,
                       rank_side, edge_count <= edge_bound,
                       edge_sum <= rank_side)
