"""The collapse detector: divergence of lower-central depth.

A relator saying "generator = commutator" is a bracket rule.  A
generator caught in a self-feeding family of bracket rules acquires
unbounded lower-central depth, so its image in every pro-p quotient is
trivial, and the vertex groups holding it cannot all inject into the
fundamental pro-p group.  analysis.detect_collapse imports this module
when it is called: a command that detects no collapse does not load it.
"""

import math
from collections import namedtuple

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


def find_collapse(presentation, p):
    """The body of analysis.detect_collapse: rules, diverging set, depths
    and the residual presentation with its mod-p rank."""
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
