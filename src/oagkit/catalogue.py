"""Stock groups and pairs used by the tests and the command line.

Finite spines whose positions carry different ribs are built from
consecutive one-point segments, so segment-scoped rib clauses address
each position exactly.
"""

from __future__ import annotations

from .chain import ChainSpec, ColourRule, Segment, SegKind, fin, omega
from .errors import PresentationError
from .group import Generator, GroupSpec, PairSpec, RibEntry, SchematicRib
from .rib import (OMEGA_UNIT, RibElement, q_rib, r_proxy_rib, window_rib,
                  z_local_rib, z_rib)


def _points(n: int) -> ChainSpec:
    return ChainSpec(tuple(Segment(SegKind.FIN, 1) for _ in range(n)))


def z_group() -> GroupSpec:
    return GroupSpec("z", fin(1), (RibEntry(rib=z_rib()),), mode="sum")


def q_group() -> GroupSpec:
    return GroupSpec("q", fin(1), (RibEntry(rib=q_rib()),), mode="sum")


def r_group() -> GroupSpec:
    return GroupSpec("r", fin(1), (RibEntry(rib=r_proxy_rib()),), mode="sum")


def zn_group(n: int) -> GroupSpec:
    return GroupSpec(f"z{n}", fin(n), (RibEntry(rib=z_rib()),), mode="sum")


def z2r_group() -> GroupSpec:
    """Two integer coordinates over a real-like one, ordered by the first
    difference."""
    spine = ChainSpec((Segment(SegKind.FIN, 2), Segment(SegKind.FIN, 1)))
    return GroupSpec("z2r", spine,
                     (RibEntry(rib=z_rib(), segment=0),
                      RibEntry(rib=r_proxy_rib(), segment=1)),
                     mode="sum")


def zq_group() -> GroupSpec:
    return GroupSpec("zq", _points(2),
                     (RibEntry(rib=z_rib(), segment=0),
                      RibEntry(rib=q_rib(), segment=1)),
                     mode="sum")


def qz_group() -> GroupSpec:
    return GroupSpec("qz", _points(2),
                     (RibEntry(rib=q_rib(), segment=0),
                      RibEntry(rib=z_rib(), segment=1)),
                     mode="sum")


def qqz_group() -> GroupSpec:
    return GroupSpec("qqz", _points(3),
                     (RibEntry(rib=q_rib(), segment=0),
                      RibEntry(rib=q_rib(), segment=1),
                      RibEntry(rib=z_rib(), segment=2)),
                     mode="sum")


def h235_group() -> GroupSpec:
    ribs = tuple(RibEntry(rib=z_local_rib(p), segment=i)
                 for i, p in enumerate((2, 3, 5)))
    return GroupSpec("h235", _points(3), ribs, mode="sum")


def g1_group() -> GroupSpec:
    """Full product of integer ribs along an omega spine."""
    return GroupSpec("g1", omega(), (RibEntry(rib=z_rib()),), mode="hahn")


def sigma_group() -> GroupSpec:
    """Finitely supported subgroup of the g1 product."""
    return GroupSpec("sigma", omega(), (RibEntry(rib=z_rib()),), mode="sum")


def g2_group() -> GroupSpec:
    """Complete dense spine; integer ribs on a dense-codense class of
    positions, real-like ribs elsewhere."""
    spine = ChainSpec((Segment(SegKind.DENSE_COMPLETE),),
                      (ColourRule("rational", (("dense", "rational", True),)),))
    return GroupSpec("g2", spine,
                     (RibEntry(rib=z_rib(), colour="rational"),
                      RibEntry(rib=r_proxy_rib())),
                     mode="hahn")


def g3_group() -> GroupSpec:
    """Two facing discrete limits; each coordinate pair is marked by its
    own colour and carries a cut-complete rib pinned at its own prime."""
    marked = ColourRule("marked", (("schematic", ()), ("schematic", ())))
    spine = ChainSpec((Segment(SegKind.OMEGA), Segment(SegKind.OMEGA_STAR)),
                      (marked,))
    return GroupSpec("g3", spine,
                     (RibEntry(schematic=SchematicRib("script_z"), segment=0),
                      RibEntry(schematic=SchematicRib("script_z"), segment=1)),
                     mode="hahn")


def g4_group() -> GroupSpec:
    """Finitely supported integer coordinates plus one generator whose tail
    is the constant 2."""
    return GroupSpec("g4", omega(), (RibEntry(rib=z_rib()),), mode="sum",
                     generators=(Generator("a", RibElement(2)),))


def h_primes_group() -> GroupSpec:
    """Omega spine where coordinate n is pinned at the n-th prime."""
    return GroupSpec("h_primes", omega(),
                     (RibEntry(schematic=SchematicRib("z_local")),),
                     mode="hahn")


def window_group() -> GroupSpec:
    return GroupSpec("window", fin(1), (RibEntry(rib=window_rib()),), mode="sum")


def sigma_ext_group() -> GroupSpec:
    """The sigma presentation widened to window ribs, with one generator
    whose tail is the infinite unit."""
    return GroupSpec("sigma_ext", omega(), (RibEntry(rib=window_rib()),),
                     mode="sum", generators=(Generator("w", OMEGA_UNIT),))


# pairs ----------------------------------------------------------------------


def identity_pair(g: GroupSpec) -> PairSpec:
    return PairSpec(g, g)


def z_window_pair() -> PairSpec:
    return PairSpec(z_group(), window_group(), frozenset({"rib_extension"}))


def z2_window_pair() -> PairSpec:
    small = GroupSpec("z_z", _points(2),
                      (RibEntry(rib=z_rib(), segment=0),
                       RibEntry(rib=z_rib(), segment=1)),
                      mode="sum")
    big = GroupSpec("window_z", _points(2),
                    (RibEntry(rib=window_rib(), segment=0),
                     RibEntry(rib=z_rib(), segment=1)),
                    mode="sum")
    return PairSpec(small, big, frozenset({"rib_extension"}))


def sum_in_hahn_pair() -> PairSpec:
    return PairSpec(sigma_group(), g1_group(), frozenset({"sum_inside_hahn"}))


def mod2_pair() -> PairSpec:
    return PairSpec(sigma_group(), sigma_ext_group(),
                    frozenset({"generator_extension", "rib_extension"}))


GROUPS = {
    "z": z_group,
    "q": q_group,
    "r": r_group,
    "z2": lambda: zn_group(2),
    "z3": lambda: zn_group(3),
    "z2r": z2r_group,
    "zq": zq_group,
    "qz": qz_group,
    "qqz": qqz_group,
    "h235": h235_group,
    "g1": g1_group,
    "g2": g2_group,
    "g3": g3_group,
    "g4": g4_group,
    "sigma": sigma_group,
    "h_primes": h_primes_group,
    "window": window_group,
    "sigma_ext": sigma_ext_group,
}

PAIRS = {
    "mod2": mod2_pair,
    "sum_in_hahn": sum_in_hahn_pair,
    "z_window": z_window_pair,
    "z2_window": z2_window_pair,
    "g1": lambda: identity_pair(g1_group()),
    "h235": lambda: identity_pair(h235_group()),
    "z": lambda: identity_pair(z_group()),
    "q": lambda: identity_pair(q_group()),
    "r": lambda: identity_pair(r_group()),
    "z2r": lambda: identity_pair(z2r_group()),
}


def builtin_group(name: str) -> GroupSpec:
    try:
        return GROUPS[name]()
    except KeyError:
        raise PresentationError(
            f"unknown group {name!r}; known: {', '.join(sorted(GROUPS))}")


def builtin_pair(name: str) -> PairSpec:
    try:
        return PAIRS[name]()
    except KeyError:
        raise PresentationError(
            f"unknown pair {name!r}; known: {', '.join(sorted(PAIRS))}")
