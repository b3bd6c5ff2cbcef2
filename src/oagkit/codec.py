"""JSON views of presentations and results.

Two layers.  ``to_jsonable``/``dumps`` turn any result object into plain
JSON data, with elements and spine values rendered in the same text
forms the formula grammar parses.  The group codecs are stricter: a
presentation written by ``group_to_data`` loads back equal through
``group_from_data``, so presentations can live in files.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .chain import (ALL, INF, NONE, ChainSpec, ColourRule, Position, SegKind,
                    Segment)
from .errors import PresentationError
from .formula import element_text, spine_value_text
from .group import (Generator, GroupSpec, PairSpec, RibEntry, SchematicRib,
                    Element)
from .rib import RibElement, RibSpec
from .valuation import SpineValue


def _frac_text(x: Fraction) -> str:
    return str(x)


def _coord_data(c):
    return c if isinstance(c, int) else _frac_text(c)


def _coord_from(d):
    if isinstance(d, bool):
        raise PresentationError(f"coordinate {d!r} is not a number")
    return d if isinstance(d, int) else Fraction(d)


# -- generic result encoding --------------------------------------------------


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return _frac_text(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if obj is INF:
        return "inf"
    if isinstance(obj, Position):
        return f"pos({obj.seg}, {obj.coord})"
    if isinstance(obj, RibElement):
        return {"q": _frac_text(obj.q), "w": _frac_text(obj.w)}
    if isinstance(obj, Element):
        return element_text(obj)
    if isinstance(obj, SpineValue):
        return spine_value_text(obj)
    if isinstance(obj, GroupSpec):
        return {"group": obj.name}
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in fields(obj):
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, (set, frozenset)):
        return sorted((to_jsonable(x) for x in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return repr(obj)


def dumps(obj, indent=None) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=indent)


# -- presentation codecs ------------------------------------------------------


def _colour_rule_data(piece):
    tag = piece[0]
    if tag == "none":
        return {"rule": "none"}
    if tag == "all":
        return {"rule": "all"}
    if tag == "only":
        return {"rule": "finite",
                "coords": sorted(map(_coord_data, piece[1]), key=str)}
    if tag == "minus":
        return {"rule": "cofinite",
                "excluded": sorted(map(_coord_data, piece[1]), key=str)}
    if tag == "dense":
        return {"rule": "dense_codense", "representable": piece[2]}
    if tag == "schematic":
        return {"rule": "schematic_singletons", "params": list(piece[1])}
    raise PresentationError(f"unknown colour rule {piece!r}")


def _colour_rule_from(d, name: str):
    """The piece a JSON colour rule stands for; ``name`` names the colour,
    which is its own dense class."""
    tag = d["rule"]
    if tag == "none":
        return NONE
    if tag == "all":
        return ALL
    if tag == "finite":
        return ("only", frozenset(map(_coord_from, d["coords"])))
    if tag == "cofinite":
        return ("minus", frozenset(map(_coord_from, d["excluded"])))
    if tag == "dense_codense":
        return ("dense", name, d.get("representable", True))
    if tag == "schematic_singletons":
        return ("schematic", tuple(d.get("params", ())))
    raise PresentationError(f"unknown colour rule tag {tag!r}")


def _domain_data(domain):
    if isinstance(domain, str):
        return domain
    return {"coprime": list(domain[1])}


def _domain_from(d):
    if isinstance(d, str):
        return d
    return ("coprime", tuple(d["coprime"]))


def _rib_data(rib: RibSpec):
    return {"name": rib.name, "domain": _domain_data(rib.domain),
            "cut_complete": rib.cut_complete,
            "nonstandard": rib.nonstandard}


def _rib_from(d) -> RibSpec:
    return RibSpec(d["name"], _domain_from(d.get("domain", "int")),
                   d.get("cut_complete", True), d.get("nonstandard", False))


def _rib_elem_data(v: RibElement):
    return {"q": _frac_text(v.q), "w": _frac_text(v.w)}


def _rib_elem_from(d) -> RibElement:
    return RibElement(Fraction(d.get("q", 0)), Fraction(d.get("w", 0)))


def _position_data(p: Position):
    return {"seg": p.seg, "coord": _coord_data(p.coord)}


def _position_from(d) -> Position:
    return Position(d["seg"], _coord_from(d["coord"]))


def group_to_data(g: GroupSpec) -> dict:
    segments = []
    for s in g.spine.segments:
        seg = {"kind": s.kind.value}
        if s.kind is SegKind.FIN:
            seg["size"] = s.size
        segments.append(seg)
    colours = [{"name": c.name,
                "rules": [_colour_rule_data(r) for r in c.rules]}
               for c in g.spine.colours]
    ribs = []
    for entry in g.ribs:
        d = {}
        if entry.rib is not None:
            d["rib"] = _rib_data(entry.rib)
        else:
            d["schematic"] = {"template": entry.schematic.template,
                              "primes": list(entry.schematic.primes)}
        if entry.segment is not None:
            d["segment"] = entry.segment
        if entry.colour is not None:
            d["colour"] = entry.colour
        if entry.position is not None:
            d["position"] = _position_data(entry.position)
        ribs.append(d)
    generators = [{"name": gen.name, "tail": _rib_elem_data(gen.tail),
                   "prefix": [[_position_data(p), _rib_elem_data(v)]
                              for p, v in gen.prefix]}
                  for gen in g.generators]
    out = {"name": g.name, "mode": g.mode,
           "spine": {"segments": segments, "colours": colours},
           "ribs": ribs}
    if generators:
        out["generators"] = generators
    return out


def group_from_data(d: dict) -> GroupSpec:
    try:
        segments = tuple(Segment(SegKind(s["kind"]), s.get("size", 0))
                         for s in d["spine"]["segments"])
        colours = tuple(
            ColourRule(c["name"],
                       tuple(_colour_rule_from(r, c["name"]) for r in c["rules"]))
            for c in d["spine"].get("colours", ()))
        ribs = []
        for e in d["ribs"]:
            ribs.append(RibEntry(
                rib=_rib_from(e["rib"]) if "rib" in e else None,
                schematic=SchematicRib(e["schematic"]["template"],
                                       tuple(e["schematic"].get("primes", ())))
                if "schematic" in e else None,
                segment=e.get("segment"),
                colour=e.get("colour"),
                position=_position_from(e["position"])
                if "position" in e else None))
        generators = tuple(
            Generator(gen["name"], _rib_elem_from(gen["tail"]),
                      tuple((_position_from(p), _rib_elem_from(v))
                            for p, v in gen.get("prefix", ())))
            for gen in d.get("generators", ()))
    except (KeyError, TypeError, ValueError) as e:
        raise PresentationError(f"malformed group data: {e}") from e
    return GroupSpec(d["name"], ChainSpec(segments, colours),
                     tuple(ribs), d.get("mode", "hahn"), generators)


def pair_to_data(pair: PairSpec) -> dict:
    return {"small": group_to_data(pair.small),
            "big": group_to_data(pair.big),
            "flags": sorted(pair.flags)}


def pair_from_data(d: dict) -> PairSpec:
    def side(v):
        if isinstance(v, str):
            from .catalogue import builtin_group
            return builtin_group(v)
        return group_from_data(v)
    try:
        small, big = side(d["small"]), side(d["big"])
    except (KeyError, TypeError) as e:
        raise PresentationError(f"malformed pair data: {e}") from e
    return PairSpec(small, big, frozenset(d.get("flags", ())))


# -- file or builtin resolution -----------------------------------------------


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_group(ref: str) -> GroupSpec:
    """A group from a builtin name, a ``builtin:name`` tag, or a JSON
    file path."""
    from .catalogue import builtin_group
    if ref.startswith("builtin:"):
        return builtin_group(ref[len("builtin:"):])
    if os.path.isfile(ref):
        return group_from_data(_load_json(ref))
    return builtin_group(ref)


def load_pair(ref: str) -> PairSpec:
    from .catalogue import builtin_pair
    if ref.startswith("builtin:"):
        return builtin_pair(ref[len("builtin:"):])
    if os.path.isfile(ref):
        return pair_from_data(_load_json(ref))
    return builtin_pair(ref)
