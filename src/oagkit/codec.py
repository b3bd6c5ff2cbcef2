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


def _coord_data(c):
    return c if isinstance(c, int) else str(c)


def _rib_elem_data(v: RibElement):
    return {"q": str(v.q), "w": str(v.w)}


def _typed(value, kind, what):
    """value, refused unless it is an instance of kind."""
    if not isinstance(value, kind):
        raise PresentationError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _coord_from(d):
    if isinstance(d, bool):
        raise PresentationError(f"coordinate {d!r} is not a number")
    return d if isinstance(d, int) else Fraction(d)


# -- generic result encoding --------------------------------------------------


# scalars as themselves, then special forms ahead of generic dataclasses
_FORMS = (((type(None), bool, int, float, str), lambda obj: obj),
          (type(INF), lambda obj: "inf"),
          (Fraction, str), (enum.Enum, lambda e: e.value),
          (Position, lambda p: f"pos({p.seg}, {p.coord})"),
          (RibElement, _rib_elem_data),
          (Element, element_text),
          (SpineValue, spine_value_text), (GroupSpec, lambda g: {"group": g.name}))
_ENCODERS = {}  # type -> its encoder, resolved on first sight
# field types that are JSON as they stand
_PLAIN = frozenset((type(None), bool, int, str))


def _encoder(cls):
    """How ``to_jsonable`` renders an instance of cls: its first form,
    else field by field for a dataclass (a field whose metadata names a
    "json" attribute renders that attribute in its place), item by item
    for a container, and ``repr`` for anything else."""
    for base, form in _FORMS:
        if issubclass(cls, base):
            return form
    if is_dataclass(cls):
        name = cls.__name__
        names = tuple(f.metadata.get("json", f.name) for f in fields(cls))

        def encode(obj):
            out = {"type": name}
            for n in names:
                v = getattr(obj, n)
                out[n] = v if type(v) in _PLAIN else to_jsonable(v)
            return out
        return encode
    if issubclass(cls, (set, frozenset)):
        return lambda obj: sorted(map(to_jsonable, obj), key=repr)
    if issubclass(cls, (list, tuple)):
        return lambda obj: [to_jsonable(x) for x in obj]
    if issubclass(cls, dict):
        return lambda obj: {str(k): to_jsonable(v) for k, v in obj.items()}
    return repr


def to_jsonable(obj):
    try:
        encode = _ENCODERS[type(obj)]
    except KeyError:
        encode = _ENCODERS[type(obj)] = _encoder(type(obj))
    return encode(obj)


_COMPACT = json.JSONEncoder(sort_keys=True)  # json.dumps(.., sort_keys=True)


def dumps(obj, indent=None) -> str:
    if indent is None:
        return _COMPACT.encode(to_jsonable(obj))
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
    if tag == "dense" and len(piece) == 3:
        return {"rule": "dense_codense", "representable": piece[2]}
    if tag == "schematic":
        return {"rule": "schematic_singletons", "params": list(piece[1])}
    # a patched dense piece has no JSON colour rule
    raise PresentationError(f"no colour rule writes the piece {piece!r}")


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
        return ("dense", name, _typed(d.get("representable", True), bool,
                                      "representable"))
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


# One instance per distinct decoded rib and segment, so each is checked
# once and every table keyed by it finds it by identity.  A table stops
# growing at TABLE_BOUND entries; past that, values are built afresh.
TABLE_BOUND = 256
_RIBS = {}      # (name, domain, cut_complete, nonstandard) -> RibSpec
_SEGMENTS = {}  # (kind, size) -> Segment


def _shared(table: dict, fields: tuple, cls):
    """The one ``cls(*fields)`` stored for these fields, built and stored
    on first sight while the table has room.  ``fields`` must hold
    values that equal only values of their own type (str, bool, int,
    enum members, tuples of them), else a refused input could find an
    accepted one: 2.0 == 2."""
    value = table.get(fields)
    if value is None:
        value = cls(*fields)
        if len(table) < TABLE_BOUND:
            table[fields] = value
    return value


def _rib_from(d) -> RibSpec:
    name = _typed(d["name"], str, "rib name")
    domain = _domain_from(d.get("domain", "int"))
    fields = (name, domain,
              _typed(d.get("cut_complete", True), bool, "cut_complete"),
              _typed(d.get("nonstandard", False), bool, "nonstandard"))
    if type(name) is str and (type(domain) is str or type(domain) is tuple
                              and all(type(p) is int for p in domain[1])):
        return _shared(_RIBS, fields, RibSpec)
    return RibSpec(*fields)


def _segment_from(s) -> Segment:
    kind, size = SegKind(s["kind"]), s.get("size", 0)
    if type(size) is int:
        return _shared(_SEGMENTS, (kind, size), Segment)
    return Segment(kind, size)


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
        name = _typed(d["name"], str, "name")
        segments = tuple(map(_segment_from, d["spine"]["segments"]))
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
            Generator(_typed(gen["name"], str, "generator name"),
                      _rib_elem_from(gen["tail"]),
                      tuple((_position_from(p), _rib_elem_from(v))
                            for p, v in gen.get("prefix", ())))
            for gen in d.get("generators", ()))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise PresentationError(f"malformed group data: {e}") from e
    return GroupSpec(name, ChainSpec(segments, colours),
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
        flags = frozenset(d.get("flags", ()))
    except (AttributeError, KeyError, TypeError) as e:
        raise PresentationError(f"malformed pair data: {e}") from e
    return PairSpec(small, big, flags)


# -- file or builtin resolution -----------------------------------------------


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise PresentationError(f"{path} is not JSON: {e}") from e


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
