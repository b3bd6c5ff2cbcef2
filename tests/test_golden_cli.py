"""Byte-for-byte replay of the command line over the whole catalogue.

``golden_cli.json`` holds the stdout and exit code of every subcommand on
every builtin group and pair, error documents included, plus a few
commands on the hand-written presentations in ``presentations/``.  Paths
are relative to the repository root, where every case runs.  Regenerate
the fixture only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from oagkit.catalogue import GROUPS, PAIRS, builtin_group, builtin_pair
from oagkit.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_cli.json")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# position clauses (an integer rib at coordinate 10 of omega over Q, a Q
# rib at coordinate 1 of fin(3) over Z), each with an element literal
PRESENTATIONS = (("z_at_ten", "el(tail: 1)"),
                 ("q_at_one", "el(pos(0, 1): 3, pos(0, 2): 3)"))


def _literal(terminal_omega) -> str:
    if terminal_omega is None:
        return "el(pos(0, 0): 3)"
    return "el(pos(0, 0): 3, tail: 2)"


def cases():
    out = []
    for name in GROUPS:
        lit = _literal(builtin_group(name).terminal_omega)
        out.append(["skeleton", name])
        for m in (0, 1, 2, 3, 6):
            out.append(["spine", str(m), name])
        out.append(["classify", name])
        out.append(["--trace", "classify", name])
        out.append(["classify-frr", name])
        out.append(["check-m", name])
        out.append(["check-ur", name])
        out.append(["val", "2", name, lit])
        out.append(["preds", name, lit])
        out.append(["eval", name, "val{2}(x) = pos(0, 0) and x > 0",
                    "--env", f"x={lit}"])
    for name in PAIRS:
        lit = _literal(builtin_pair(name).big.terminal_omega)
        out.append(["pair-classify", name])
        out.append(["--trace", "pair-classify", name])
        out.append(["best-approx", name, lit])
        for kind in ("sign", "cong", "eqk"):
            out.append(["scheme", kind, name, lit])
    # the literal above lies outside sigma_ext, whose tails are multiples
    # of W; this one lies inside
    lit = "el(pos(0, 0): 3, tail: W)"
    out.append(["best-approx", "mod2", lit])
    for kind in ("sign", "cong", "eqk"):
        out.append(["scheme", kind, "mod2", lit])
    for name, lit in PRESENTATIONS:
        path = f"tests/presentations/{name}.json"
        out.append(["spine", "2", path])
        out.append(["val", "2", path, lit])
        out.append(["classify", path])
    # two colours split one segment: refused
    out.append(["classify", "tests/presentations/two_colours.json"])
    out.append(["corpus"])
    return out


def run_case(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, stdout.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert [c["argv"] for c in golden] == cases()


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_is_unchanged(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = next(c for c in golden if c["argv"] == argv)
    assert run_case(argv) == (want["exit"], want["stdout"])


if __name__ == "__main__":
    os.chdir(ROOT)
    rows = []
    for argv in cases():
        code, stdout = run_case(argv)
        rows.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} cases to {FIXTURE}", file=sys.stderr)
