"""Command-line front end.

Every subcommand prints one JSON document on stdout (pretty by default,
one line with ``--json``) and signals its verdict through the exit code:
0 for stably embedded or a plain answer, 1 for not stably embedded, 2
for unknown or a violated hypothesis, 64 for usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import classify as cls
from .approx import (best_approx, scheme_cases, scheme_cong, scheme_eqk,
                     scheme_formula, scheme_sign)
from .catalogue import GROUPS, PAIRS
from .classify import STATUS_NAMES
from .codec import dumps, load_group, load_pair, to_jsonable
from .corpus import CASES
from .errors import (FormulaSyntaxError, NotRepresentable, OagError,
                     PositionOutOfDomain, PresentationError, UnboundVariable)
from .formula import (eval_formula, formula_text, parse_element,
                      parse_formula)
from .pseudo import (PseudoSequence, hahn_pseudo_limit, is_pseudo_cauchy,
                     lift_mod_m)
from .valuation import (check_m, check_ur, lead_bullet, lead_m, spine_m,
                        val_m)

USAGE_EXIT = 64

STATUS_EXITS = {
    cls.Status.SE: 0,
    cls.Status.USE: 0,
    cls.Status.NOT_SE: 1,
    cls.Status.UNKNOWN: 2,
}


def _emit(args, data) -> None:
    print(dumps(data, indent=None if args.json else 2))


def _verdict_data(v: cls.Verdict, trace: bool) -> dict:
    out = {"status": STATUS_NAMES[v.status]}
    if trace:
        out["reasons"] = [to_jsonable(r) for r in v.reasons]
    else:
        out["why"] = v.why()
    return out


def _bound(args) -> Optional[int]:
    """``--bound``, else ``OAGKIT_BOUND``, else None; refused if negative."""
    bound = args.bound
    if bound is None:
        env = os.environ.get("OAGKIT_BOUND")
        if env is None:
            return None
        try:
            bound = int(env)
        except ValueError:
            raise PresentationError(f"OAGKIT_BOUND must be an integer, "
                                    f"got {env!r}")
    if bound < 0:
        raise PresentationError(f"the bound must be nonnegative, "
                                f"got {bound}")
    return bound


# -- subcommands ---------------------------------------------------------------


def _cmd_skeleton(args) -> int:
    g = load_group(args.group)
    _emit(args, g.skeleton())
    return 0


def _cmd_spine(args) -> int:
    g = load_group(args.group)
    _emit(args, to_jsonable(spine_m(g, args.m)))
    return 0


def _cmd_val(args) -> int:
    g = load_group(args.group)
    e = parse_element(args.element, g)
    _emit(args, {"element": to_jsonable(e),
                 "m": args.m, "value": to_jsonable(val_m(g, e, args.m))})
    return 0


def _cmd_preds(args) -> int:
    g = load_group(args.group)
    e = parse_element(args.element, g)
    bound = 4 if args.bound is None else args.bound
    # one lead per modulus gives its value and every coefficient predicate
    leads = {m: lead_m(g, e, m) for m in [0, *range(2, bound + 1)]}
    out = {
        "element": to_jsonable(e),
        "sign": g.sign_of(e),
        "val": {str(m): to_jsonable(lead[0]) for m, lead in leads.items()},
        "eq_bullet": {str(k): lead_bullet(g, leads[0], 0, k)
                      for k in range(0, bound)},
        "cong_bullet": {f"{m},{k}": lead_bullet(g, leads[m], m, k)
                        for m in range(2, bound + 1) for k in range(m)},
    }
    _emit(args, out)
    return 0


def _cmd_classify(args) -> int:
    g = load_group(args.group)
    v = cls.classify_main(g)
    _emit(args, _verdict_data(v, args.trace))
    return STATUS_EXITS[v.status]


def _cmd_classify_frr(args) -> int:
    g = load_group(args.group)
    v = cls.classify_frr(g)
    data = _verdict_data(v, args.trace)
    data["blocks"] = to_jsonable(cls.frr_classes(g))
    _emit(args, data)
    return STATUS_EXITS[v.status]


def _cmd_pair_classify(args) -> int:
    pair = load_pair(args.pair)
    v = cls.classify_pair(pair)
    _emit(args, _verdict_data(v, args.trace))
    return STATUS_EXITS[v.status]


def _cmd_check(args, checker) -> int:
    g = load_group(args.group)
    res = checker(g)
    _emit(args, to_jsonable(res))
    return 0 if res.holds else 2


def _cmd_pseudo(args) -> int:
    g = load_group(args.group)
    terms = tuple(parse_element(t, g) for t in args.elements)
    seq = PseudoSequence(terms, modulus=args.m)
    ok, info = is_pseudo_cauchy(g, seq, args.m)
    data = {"pseudo_cauchy": ok, "m": args.m}
    if ok:
        data["threshold"] = info
        if g.mode == "hahn":
            try:
                data["limit"] = to_jsonable(hahn_pseudo_limit(g, seq))
            except NotRepresentable:
                data["limit"] = None  # a bare prefix fixes no coordinates
    else:
        data["witness"] = to_jsonable(info)
    _emit(args, data)
    return 0


def _cmd_lift(args) -> int:
    g = load_group(args.group)
    terms = tuple(parse_element(t, g) for t in args.elements)
    seq = PseudoSequence(terms, modulus=args.m)
    lifted = lift_mod_m(g, seq, args.m)
    _emit(args, {"m": args.m, "lifted": to_jsonable(lifted)})
    return 0


def _cmd_best_approx(args) -> int:
    pair = load_pair(args.pair)
    a = parse_element(args.element, pair.big)
    _emit(args, to_jsonable(best_approx(pair, a, args.n, args.m)))
    return 0


def _cmd_scheme(args) -> int:
    pair = load_pair(args.pair)
    a = parse_element(args.element, pair.big)
    if args.kind == "sign":
        s = scheme_sign(pair, a, args.n)
        target = f"sign({args.n})"
    elif args.kind == "cong":
        s = scheme_cong(pair, a, args.n, args.m, args.k)
        target = f"cong({args.n},{args.m},{args.k})"
    else:
        s = scheme_eqk(pair, a, args.n, args.k)
        target = f"eqk({args.n},{args.k})"
    rows, complete = scheme_cases(pair, s)
    formula, _ = scheme_formula(pair, s)
    data = {
        "target": target,
        "cases": [{"guard": tag,
                   "guard_formula": None if guard is None
                   else formula_text(guard),
                   "payload": formula_text(payload)}
                  for tag, guard, payload in rows],
        "params": {"approx": to_jsonable(s.approx),
                   "beta": to_jsonable(s.beta),
                   "exact": s.exact},
        "complete": complete,
        "formula": formula_text(formula),
    }
    if s.ladder is not None:
        data["note"] = s.note
    _emit(args, data)
    return 0 if complete else 2


def _cmd_eval(args) -> int:
    g = load_group(args.group)
    f = parse_formula(args.formula)
    env = {}
    for item in args.env or ():
        name, _, text = item.partition("=")
        if not _:
            raise PresentationError(f"--env needs NAME=ELEMENT, got {item!r}")
        env[name] = parse_element(text, g)
    value = eval_formula(g, f, env)
    _emit(args, {"formula": formula_text(f), "value": value})
    return 0


def _cmd_corpus(args) -> int:
    rows = []
    failed = 0
    for name, check in CASES:
        try:
            ok, detail = check()
        except OagError as e:
            ok, detail = False, f"error: {e}"
        rows.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            failed += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}",
              file=sys.stderr)
    _emit(args, {"cases": rows, "passed": len(rows) - failed,
                 "failed": failed})
    return 0 if failed == 0 else 1


# -- argument wiring -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    top = _Parser(prog="oagkit",
                  description="Stable embeddedness toolkit for ordered "
                              "abelian groups presented over coloured "
                              "chains.")
    top.add_argument("--json", action="store_true",
                     help="compact one-line JSON output")
    top.add_argument("--trace", action="store_true",
                     help="include full reason trees in verdicts")
    top.add_argument("--bound", type=int, default=None,
                     help="largest modulus preds reads (default from "
                          "OAGKIT_BOUND, else 4)")
    sub = top.add_subparsers(dest="command", required=True)

    group_help = ("builtin group name (%s) or a JSON presentation file"
                  % ", ".join(sorted(GROUPS)))
    pair_help = ("builtin pair name (%s) or a JSON pair file"
                 % ", ".join(sorted(PAIRS)))

    p = sub.add_parser("skeleton", help="dump a presentation summary")
    p.add_argument("group", help=group_help)
    p.set_defaults(fn=_cmd_skeleton)

    p = sub.add_parser("spine", help="value set of val_m")
    p.add_argument("m", type=int)
    p.add_argument("group", help=group_help)
    p.set_defaults(fn=_cmd_spine)

    p = sub.add_parser("val", help="evaluate val_m on one element")
    p.add_argument("m", type=int)
    p.add_argument("group", help=group_help)
    p.add_argument("element", help='element literal, e.g. '
                                   '"el(pos(0, 0): 1, tail: 2)"')
    p.set_defaults(fn=_cmd_val)

    p = sub.add_parser("preds", help="atomic predicate battery on an element")
    p.add_argument("group", help=group_help)
    p.add_argument("element")
    p.set_defaults(fn=_cmd_preds)

    p = sub.add_parser("classify", help="stable embeddedness verdict")
    p.add_argument("group", help=group_help)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("classify-frr", help="verdict by finite convex blocks")
    p.add_argument("group", help=group_help)
    p.set_defaults(fn=_cmd_classify_frr)

    p = sub.add_parser("pair-classify", help="verdict for a named pair")
    p.add_argument("pair", help=pair_help)
    p.set_defaults(fn=_cmd_pair_classify)

    p = sub.add_parser("check-m", help="limit-value hypothesis")
    p.add_argument("group", help=group_help)
    p.set_defaults(fn=lambda a: _cmd_check(a, check_m))

    p = sub.add_parser("check-ur", help="uniform value-set hypothesis")
    p.add_argument("group", help=group_help)
    p.set_defaults(fn=lambda a: _cmd_check(a, check_ur))

    p = sub.add_parser("pseudo", help="pseudo-Cauchy check for a sequence")
    p.add_argument("-m", type=int, default=0)
    p.add_argument("group", help=group_help)
    p.add_argument("elements", nargs="+")
    p.set_defaults(fn=_cmd_pseudo)

    p = sub.add_parser("lift", help="lift a mod-m pseudo-Cauchy prefix")
    p.add_argument("-m", type=int, default=2)
    p.add_argument("group", help=group_help)
    p.add_argument("elements", nargs="+")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("best-approx", help="best approximation across a pair")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("-m", type=int, default=0)
    p.add_argument("pair", help=pair_help)
    p.add_argument("element")
    p.set_defaults(fn=_cmd_best_approx)

    p = sub.add_parser("scheme", help="emit a defining scheme")
    p.add_argument("kind", choices=("sign", "cong", "eqk"))
    p.add_argument("-n", type=int, default=1)
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-k", type=int, default=0)
    p.add_argument("pair", help=pair_help)
    p.add_argument("element")
    p.set_defaults(fn=_cmd_scheme)

    p = sub.add_parser("eval", help="evaluate a formula over a group")
    p.add_argument("group", help=group_help)
    p.add_argument("formula")
    p.add_argument("--env", action="append", metavar="NAME=ELEMENT")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("corpus", help="run the reproduction suite")
    p.set_defaults(fn=_cmd_corpus)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else USAGE_EXIT
    try:
        args.bound = _bound(args)
        return args.fn(args)
    except (PresentationError, FormulaSyntaxError, UnboundVariable,
            PositionOutOfDomain) as e:
        print(dumps({"error": str(e), "kind": type(e).__name__}))
        return USAGE_EXIT
    except OagError as e:
        print(dumps({"error": str(e), "kind": type(e).__name__}))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
