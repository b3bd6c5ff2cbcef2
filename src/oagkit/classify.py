"""Stable embeddedness verdicts for groups and pairs.

A verdict is assembled from independent pieces of evidence: value-set
uniformity, absence of limit values, maximality, the ribs on their own,
and definability of cuts on the coloured regular spine.  Each piece is
recorded as a reason, so a verdict can be audited step by step.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from .chain import (CutStatus, Position, chain_stably_embedded, contains,
                    dense_colour)
from .errors import NotFRRError
from .group import Element, GroupSpec, PairSpec, SchematicRib
from .pseudo import NoMaximum, immediate_ext_check
from .rib import (OMEGA_UNIT, RIB_ONE, RibElement, RibSpec, rib_contains,
                  rib_pair_stably_embedded, rib_stably_embedded)
from .valuation import _union_piece, check_m, check_ur, regular_spine


class Status(enum.Enum):
    SE = "stably embedded"
    USE = "uniformly stably embedded"
    NOT_SE = "not stably embedded"
    UNKNOWN = "unknown"


STATUS_NAMES = {Status.SE: "StablyEmbedded",
                Status.USE: "UniformlyStablyEmbedded",
                Status.NOT_SE: "NotStablyEmbedded",
                Status.UNKNOWN: "Unknown"}


@dataclass(frozen=True)
class Reason:
    rule: str
    witness: object = None
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    status: Status
    reasons: Tuple[Reason, ...] = ()

    def why(self) -> str:
        return "; ".join(f"{r.rule}: {r.detail}" if r.detail else r.rule
                         for r in self.reasons)


# -- finite decompositions ----------------------------------------------------


def frr_classes(g: GroupSpec) -> tuple:
    """Convex blocks of a finite spine, ascending, each closed on top at a
    resisting position; a trailing block of divisible positions may
    remain.

    The resisting positions are the points of the union of the prime
    value sets, ``_union_piece``: its predicate on a rib is
    ``nondivisible_primes != ()`` (the rib resists division by some
    prime), and coordinate n under a schematic rule resists by its own
    prime, so the schematic piece is everything.
    """
    if not g.spine.finite:
        raise NotFRRError(
            f"{g.name}: the spine is infinite, so the chain of full convex "
            "subgroups picked out by resisting positions does not terminate")
    blocks, block = [], []
    for i, seg in enumerate(g.spine.segments):
        piece = _union_piece(g, i)
        for c in range(seg.size):
            block.append(Position(i, c))
            if contains(piece, c):
                blocks.append(tuple(block))
                block = []
    if block:
        blocks.append(tuple(block))
    return tuple(blocks)


def _class_verdict(g: GroupSpec, cls) -> Tuple[Status, Reason]:
    if len(cls) > 1:
        return Status.NOT_SE, Reason(
            "convex-block", cls,
            "two positions share a block, so a proper convex subgroup "
            "sits strictly inside it; its cut is a non-definable trace")
    p = cls[0]
    rib = g.rib_at(p)
    if rib.discrete:
        return Status.USE, Reason(
            "discrete-rib", p, "integer-like coordinate: congruence and "
            "order data decide every trace, uniformly in the pair")
    if rib.nondivisible_primes == () and rib.cut_complete:
        return Status.USE, Reason(
            "divisible-complete-rib", p,
            "divisible and cut complete: traces are intervals with "
            "endpoints already present")
    if rib.cut_complete:
        return Status.SE, Reason(
            "complete-rib", p,
            "cut complete coordinate: parameter cuts land on points of "
            "the rib, though not uniformly across pairs")
    return Status.NOT_SE, Reason(
        "gap-cut", p,
        "the rib has a gap cut; a pair can pinch it from outside")


def classify_frr(g: GroupSpec) -> Verdict:
    """Verdict by convex blocks, for finite regular rank."""
    classes = frr_classes(g)
    reasons = []
    worst = Status.USE
    for cls in classes:
        status, reason = _class_verdict(g, cls)
        reasons.append(reason)
        if status is Status.NOT_SE:
            return Verdict(Status.NOT_SE, tuple(reasons))
        if status is Status.SE:
            worst = Status.SE
    return Verdict(worst, tuple(reasons))


# -- the main pipeline --------------------------------------------------------


def _segment_ribs(g: GroupSpec, i: int):
    """Every rib segment i's layout puts down; a schematic rule is read at
    one coordinate, since its template fixes the verdict."""
    return tuple(rule.rib_for(0) if isinstance(rule, SchematicRib) else rule
                 for rule in g.layouts[i].rules)


def _hahnification(g: GroupSpec) -> PairSpec:
    big = GroupSpec(g.name + "^", g.spine, g.ribs, mode="hahn")
    return PairSpec(g, big, frozenset({"sum_inside_hahn"}))


def classify_main(g: GroupSpec) -> Verdict:
    reasons = []

    ur = check_ur(g)
    if not ur.holds:
        rep = chain_stably_embedded(g.spine)
        if rep.status is CutStatus.NOT_DEFINABLE:
            return Verdict(Status.NOT_SE, (
                Reason("value-sets", ur.witness, ur.note),
                Reason("spine-cut", rep.witness, rep.detail)))
        return Verdict(Status.UNKNOWN, (
            Reason("value-sets-open", ur.witness,
                   ur.note + "; no spine cut witnesses a failure"),))
    detail = f"value sets stabilize at modulus {ur.modulus}"
    # the union pieces are those of spine_m(g, ur.modulus) (see check_ur),
    # and only a dense colour piece of a layout makes a dense one
    dense = {dense_colour(_union_piece(g, i)) for i, lay in enumerate(g.layouts)
             if dense_colour(lay.piece) is not None} - {None}
    if dense:
        detail += ("; the value set is the dense-codense locus "
                   + ", ".join(sorted(dense)))
    reasons.append(Reason("value-sets", None, detail))

    mres = check_m(g)
    if not mres.holds:
        return Verdict(Status.UNKNOWN, (*reasons, Reason(
            "limit-value", mres.witness, mres.note)))
    reasons.append(Reason("no-limit-values", None, mres.note))

    if g.mode == "sum" and g.terminal_omega is not None:
        if g.generators:
            return Verdict(Status.UNKNOWN, (*reasons, Reason(
                "maximality-open", None,
                "a finitely generated extension of a small sum: maximality "
                "is not settled by the implemented criteria")))
        pair = _hahnification(g)
        h = Element((), RIB_ONE)
        rep = immediate_ext_check(pair, h)
        if rep.kind == "no_maximum":
            return Verdict(Status.NOT_SE, (*reasons, Reason(
                "not-maximal", rep,
                "the constant-1 thread of the full product is approximated "
                "cofinally but never reached; the cut under it has no "
                "definable trace")))
        return Verdict(Status.UNKNOWN, (*reasons, Reason(
            "maximality-open", rep, "no missing pseudo-limit was exhibited")))
    reasons.append(Reason("maximal", None,
                          "full products and finite sums are "
                          "pseudo-complete"))

    for i in range(len(g.spine.segments)):
        for rib in _segment_ribs(g, i):
            ok, why = rib_stably_embedded(rib)
            if not ok:
                return Verdict(Status.NOT_SE, (*reasons, Reason(
                    "rib-cut", rib, why)))
    reasons.append(Reason("ribs", None, "every rib is stably embedded"))

    rep = chain_stably_embedded(regular_spine(g))
    if rep.status is CutStatus.NOT_DEFINABLE:
        return Verdict(Status.NOT_SE, (*reasons, Reason(
            "spine-cut", rep.witness, rep.detail)))
    if rep.status is CutStatus.UNKNOWN:
        return Verdict(Status.UNKNOWN, (*reasons, Reason(
            "spine-cut-open", rep.witness, rep.detail)))
    reasons.append(Reason("spine-cuts", None, rep.detail))

    if g.spine.finite:
        frr = classify_frr(g)
        return Verdict(frr.status, (*reasons, *frr.reasons))
    return Verdict(Status.SE, tuple(reasons))


# -- pairs --------------------------------------------------------------------


def _fresh_elements(pair: PairSpec):
    """Elements of the big group likely to sit outside the small one:
    generator tails, the constant-1 thread, and a one-off coordinate from
    each strictly bigger rib, at the first place ``PairSpec.rib_pairs``
    reads its pair of ribs."""
    small, big = pair.small, pair.big
    out = []
    small_gens = {g.name for g in small.generators}
    for gen in big.generators:
        if gen.name not in small_gens:
            out.append((f"generator {gen.name}", big.generator_element(gen)))
    if big.mode == "hahn" and small.mode == "sum" and \
            big.terminal_omega is not None:
        out.append(("constant-1 thread", Element((), RIB_ONE)))
    seen = set()
    for _, p, rib_s, rib_b in pair.located_rib_pairs:
        if p is None or rib_s == rib_b or (rib_s, rib_b) in seen:
            continue
        seen.add((rib_s, rib_b))
        for w in (OMEGA_UNIT, RibElement(1, 2), RibElement(1, 3)):
            if rib_contains(rib_b, w) and not rib_contains(rib_s, w):
                out.append((f"fresh coordinate at {p}", big.el([(p, w)])))
                break
    return out


def _ladder_modulus(pair: PairSpec, h: Element) -> Optional[int]:
    """The one modulus ``classify_pair`` asks h for a ladder, or None."""
    big = pair.big
    rib = big.layouts[big.terminal_omega].eventual if h.tail else None
    if not isinstance(rib, RibSpec):
        return None
    if rib.discrete:
        k = int(h.tail.q + h.tail.w)
        return next(m for m in itertools.count(2) if k % m) if k else None
    num = h.tail.q.numerator
    return min((next(p ** e for e in itertools.count(1) if num % p ** e)
                for p in rib.nondivisible_primes), default=None)


def classify_pair(pair: PairSpec) -> Verdict:
    """Verdict for the small group sitting in the big one.

    Congruence ladders.  Past the early exits (the pair is elementary,
    the small group has no generators), ``best_approx(pair, h, 1, m)`` on
    a fresh element h is a NoMaximum exactly when h has a tail t, the
    small group is a sum, and t is no m-th multiple in R, the big rib
    past the terminal horizon.  For every coordinate matches at every m:
    elementarily equivalent ribs are dense with the same rationals, or
    discrete, and then only z inside the window leaves a coordinate
    outside the small rib, where its residue q + w is the match.  So no
    rung is best iff neither the ladder's limit (tail ``step``, in a sum
    only as the first rung) nor the first rung approximates h to INF or
    a limit value, and the first rung leaves t past the walk, which
    passes where t / m leaves a schematic rib: so iff t is no m-th
    multiple in R.  These moduli are closed under multiples, and
    ``_ladder_modulus`` asks the least: in a discrete R the least m >= 2
    not dividing k = q + w, none when k is 0; in a dense R with
    nondivisible primes P, the least power of a p in P not dividing the
    numerator of t, none when P is empty.  A small group with generators
    has a tail lattice the walk does not search: its ladders stay open.
    """
    from .approx import best_approx

    if pair.small == pair.big:
        return Verdict(Status.SE, (Reason(
            "identity", None, "a structure is trivially stably embedded "
            "in itself"),))

    reasons = []
    open_points = []

    elem, detail = pair.elementary
    if elem is False:
        return Verdict(Status.UNKNOWN, (Reason(
            "not-elementary", None,
            detail + "; stable embeddedness is not posed"),))
    reasons.append(Reason("elementary", None, detail))

    fresh = [(label, h) for label, h in _fresh_elements(pair)
             if not pair.small.contains(h)]
    for label, h in fresh:
        rep = immediate_ext_check(pair, h)
        if rep.kind == "no_maximum":
            return Verdict(Status.NOT_SE, (*reasons, Reason(
                "missing-pseudo-limit", rep,
                f"{label} is approximated cofinally from the small group "
                "but never best; the cut below it has no definable trace")))
        reasons.append(Reason("adds-width", rep.position,
                              f"{label} deviates at {rep.position} inside "
                              "a strictly bigger rib"))

    if fresh and pair.small.generators:
        open_points.append(Reason(
            "congruence-ladder-open", None,
            "the small group has generators, and best approximations over "
            "its tail lattice are not searched"))
        fresh = []
    for label, h in fresh:
        m = _ladder_modulus(pair, h)
        ap = None if m is None else best_approx(pair, h, 1, m)
        if isinstance(ap, NoMaximum):
            if check_ur(pair.small).holds and check_m(pair.small).holds:
                return Verdict(Status.NOT_SE, (*reasons, Reason(
                    "congruence-ladder", ap,
                    f"no best approximation of {label} modulo {m}: the "
                    "residue ladder is pseudo-convergent with no "
                    "pseudo-limit in the small group, and its trace is "
                    "not definable")))
            open_points.append(Reason(
                "congruence-ladder-open", ap,
                f"a cofinal residue ladder modulo {m} was found but the "
                "small group fails a value-set hypothesis"))

    seen = set()
    for where, rib_s, rib_b in pair.rib_pairs():
        if (rib_s, rib_b) in seen:
            continue  # the same pair of ribs gives the same answer
        seen.add((rib_s, rib_b))
        ok, why = rib_pair_stably_embedded(rib_s, rib_b)
        if ok is False:
            return Verdict(Status.NOT_SE, (*reasons, Reason(
                "rib-pair-cut", where, why)))
        if ok is None:
            open_points.append(Reason("rib-pair-open", where, why))

    reasons.append(Reason("spine", None,
                          "the pair shares one spine; no new cuts appear"))
    if open_points:
        return Verdict(Status.UNKNOWN, (*reasons, *open_points))
    return Verdict(Status.SE, tuple(reasons))
