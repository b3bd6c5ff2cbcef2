"""End-to-end behaviour of the command line front end."""

import json
import time
from pathlib import Path

import pytest

from oagkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_classify_exit_codes(capsys):
    assert run(capsys, "classify", "g1")[0] == 0
    assert run(capsys, "classify", "z")[0] == 0
    assert run(capsys, "classify", "g3")[0] == 1
    assert run(capsys, "classify", "g4")[0] == 2


def test_classify_payload_names_the_status(capsys):
    code, data = run_json(capsys, "--json", "classify", "g1")
    assert code == 0
    assert data["status"] == "StablyEmbedded"
    code, data = run_json(capsys, "--json", "classify", "z")
    assert data["status"] == "UniformlyStablyEmbedded"
    code, data = run_json(capsys, "--json", "classify", "sigma")
    assert data["status"] == "NotStablyEmbedded"


def test_trace_adds_reasons(capsys):
    _, plain = run_json(capsys, "--json", "classify", "g2")
    _, traced = run_json(capsys, "--json", "--trace", "classify", "g2")
    assert "reasons" not in plain
    assert traced["reasons"]


def test_output_is_deterministic(capsys):
    one = run(capsys, "--json", "classify", "h235")
    two = run(capsys, "--json", "classify", "h235")
    assert one == two


def test_unknown_group_is_a_usage_error(capsys):
    code, out, _ = run(capsys, "classify", "mystery")
    assert code == 64
    assert "mystery" in out


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 64


def test_skeleton_and_spine(capsys):
    code, data = run_json(capsys, "--json", "skeleton", "g2")
    assert code == 0
    assert data["mode"] == "hahn"
    code, data = run_json(capsys, "--json", "spine", "2", "g4")
    assert code == 0
    assert data["pieces"] == [["all"]]
    assert data["limit_seg"] == 0
    assert data["inf"] is True


def test_val_subcommand(capsys):
    code, data = run_json(capsys, "--json", "val", "2", "g4", "el(tail: 2)")
    assert code == 0
    assert data["value"] == "limit(0)"
    code, data = run_json(capsys, "--json", "val", "2", "z",
                          "el(pos(0, 0): 5)")
    assert data["value"] == "pos(0, 0)"


def test_check_commands(capsys):
    assert run(capsys, "check-m", "g1")[0] == 0
    assert run(capsys, "check-m", "g4")[0] == 2
    assert run(capsys, "check-ur", "z")[0] == 0
    assert run(capsys, "check-ur", "g3")[0] == 2
    code, data = run_json(capsys, "--json", "check-ur", "h235")
    assert code == 0
    assert data["modulus"] == 30


def test_classify_frr_table(capsys):
    code, data = run_json(capsys, "--json", "classify-frr", "z2r")
    assert code == 0
    assert data["status"] == "UniformlyStablyEmbedded"
    assert run(capsys, "classify-frr", "zq")[0] == 1


def test_pair_classify(capsys):
    assert run(capsys, "pair-classify", "z")[0] == 0
    assert run(capsys, "pair-classify", "mod2")[0] == 1
    assert run(capsys, "pair-classify", "sum_in_hahn")[0] == 1


def test_pseudo_subcommand(capsys):
    code, data = run_json(capsys, "--json", "pseudo", "g1",
                          "el(pos(0, 0): 1)",
                          "el(pos(0, 0): 1, pos(0, 1): 1)",
                          "el(pos(0, 0): 1, pos(0, 1): 1, pos(0, 2): 1)")
    assert code == 0
    assert data["pseudo_cauchy"] is True
    assert data["limit"] is None
    code, _, _ = run(capsys, "pseudo", "g1", "el(pos(0, 0): 1)",
                     "el(pos(0, 0): 2)")
    assert code == 2


def test_lift_subcommand(capsys):
    code, data = run_json(
        capsys, "--json", "lift", "g1",
        "el(pos(0, 0): 1)",
        "el(pos(0, 0): 3, pos(0, 1): 1)",
        "el(pos(0, 0): 3, pos(0, 1): 3, pos(0, 2): 1)",
        "el(pos(0, 0): 3, pos(0, 1): 3, pos(0, 2): 3, pos(0, 3): 1)")
    assert code == 0
    assert data["m"] == 2
    assert len(data["lifted"]["terms"]) == 4




def test_scheme_on_a_non_elementary_pair_exits_64(capsys, tmp_path):
    from oagkit.catalogue import builtin_group
    from oagkit.codec import group_to_data
    small = group_to_data(builtin_group("z2"))
    big = dict(small, name="z2q", ribs=[{"rib": {"name": "q", "domain": "rat",
                                                 "cut_complete": False}}])
    path = tmp_path / "z2_in_q.json"
    path.write_text(json.dumps({"small": small, "big": big}))
    code, data = run_json(capsys, "scheme", "eqk", "-k", "1", str(path),
                          "el(pos(0, 1): 1/3)")
    assert code == 64
    assert data["kind"] == "PresentationError"
    assert "not elementary" in data["error"]
def test_eval_subcommand(capsys):
    code, data = run_json(capsys, "--json", "eval", "z", "x > 0",
                          "--env", "x=el(pos(0, 0): 5)")
    assert code == 0
    assert data["value"] is True
    code, _, _ = run(capsys, "eval", "z", "x >")
    assert code == 64
    code, _, _ = run(capsys, "eval", "z", "x - y > 0",
                     "--env", "x=el(pos(0, 0): 5)")
    assert code == 64


def test_preds_subcommand(capsys):
    code, data = run_json(capsys, "--json", "preds", "z", "el(pos(0, 0): 5)")
    assert code == 0
    assert data
    code, data = run_json(capsys, "--json", "preds", "z", "el()")
    assert code == 0
    assert data["eq_bullet"] == {"0": True, "1": False, "2": False, "3": False}


def test_best_approx_subcommand(capsys):
    code, data = run_json(capsys, "--json", "best-approx", "-n", "2", "z",
                          "el(pos(0, 0): 3)")
    assert code == 0
    assert data["exact"] is True


def test_scheme_subcommand_exact_case(capsys):
    code, data = run_json(capsys, "--json", "scheme", "cong", "-n", "1",
                          "-m", "2", "-k", "1", "z_window",
                          "el(pos(0, 0): 1)")
    assert code == 0
    assert data["complete"] is True
    assert data["target"] == "cong(1,2,1)"
    assert data["cases"] == [
        {"guard": "eq", "guard_formula": None,
         "payload": "-x + el(pos(0, 0): 1) ==={2} 1"}]


def test_scheme_subcommand_ladder_is_incomplete(capsys):
    code, data = run_json(capsys, "--json", "scheme", "sign", "sum_in_hahn",
                          "el(tail: 1)")
    assert code == 2
    assert data["complete"] is False
    assert data["cases"]


def test_corpus_runs_clean(capsys):
    code, out, err = run(capsys, "corpus")
    assert code == 0
    lines = [l for l in err.strip().splitlines() if l]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
    assert json.loads(out)


def test_group_loading_from_file(tmp_path, capsys):
    code, out, _ = run(capsys, "--json", "skeleton", "z2")
    pres_path = tmp_path / "pet.json"
    from oagkit.codec import dumps, group_to_data
    from oagkit.catalogue import builtin_group
    pres_path.write_text(dumps(group_to_data(builtin_group("z2"))))
    code2, out2, _ = run(capsys, "--json", "skeleton", str(pres_path))
    assert code == code2 == 0
    assert json.loads(out)["segments"] == json.loads(out2)["segments"]


def test_bound_flag_and_env(capsys, monkeypatch):
    code, _ = run_json(capsys, "--json", "--bound", "8", "check-ur", "z")
    assert code == 0
    monkeypatch.setenv("OAGKIT_BOUND", "9")
    code, _ = run_json(capsys, "--json", "check-ur", "z")
    assert code == 0
    monkeypatch.setenv("OAGKIT_BOUND", "frog")
    code, out, _ = run(capsys, "check-ur", "z")
    assert code == 64


def test_negative_bounds_are_usage_errors(capsys, monkeypatch):
    code, data = run_json(capsys, "--json", "--bound", "-1", "check-m", "g4")
    assert code == 64
    assert data["kind"] == "PresentationError"
    monkeypatch.setenv("OAGKIT_BOUND", "-3")
    code, data = run_json(capsys, "--json", "classify", "g1")
    assert code == 64
    assert data["kind"] == "PresentationError"
    monkeypatch.setenv("OAGKIT_BOUND", "0")
    assert run(capsys, "check-ur", "z")[0] == 0


@pytest.mark.parametrize("argv, code, decided", [
    (("check-m", "g4"), 2, lambda data: data["modulus"] == 2
     and data["holds"] is False and "bounded" not in data),
    # the mod-2 ladder of w is found although no modulus up to 1 is 2
    (("pair-classify", "mod2"), 1, lambda data:
     data["status"] == "NotStablyEmbedded"
     and "congruence-ladder: no best approximation of generator w modulo 2"
     in data["why"]),
], ids=["check-m", "pair-classify"])
def test_check_m_is_decided_whatever_the_bound(capsys, monkeypatch, argv,
                                               code, decided):
    monkeypatch.delenv("OAGKIT_BOUND", raising=False)
    got, data = run_json(capsys, "--json", "--bound", "1", *argv)
    assert got == code
    assert decided(data)


def test_two_tails_hold_the_limit_at_a_large_prime_at_once(capsys):
    path = str(Path(__file__).parent / "presentations" / "two_tails.json")
    start = time.perf_counter()
    code, data = run_json(capsys, "--json", "spine", "104729", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert data["limit_seg"] == 0
    code, data = run_json(capsys, "--json", "check-m", path)
    assert code == 2
    assert (data["modulus"], data["witness"]) == (2, "el(tail: W+1)")


def test_negative_modulus_for_spine_is_a_usage_error(capsys):
    code, data = run_json(capsys, "--json", "spine", "-1", "g1")
    assert code == 64
    assert data["kind"] == "PresentationError"


def test_a_repeated_literal_coordinate_is_a_usage_error(capsys):
    code, data = run_json(capsys, "--json", "preds", "g1",
                          "el(pos(0, 1): 1, pos(0, 1): 2)")
    assert code == 64
    assert data == {"error": "duplicate coordinate at pos(0, 1)",
                    "kind": "PresentationError"}


@pytest.mark.parametrize("literal", ["el(pos(3, 0): 1)", "el(pos(0, -1): 1)",
                                     "el(pos(3, 0): 0)", "el(pos(0, -1): 0)"])
def test_literal_positions_are_checked_against_the_group(capsys, literal):
    code, data = run_json(capsys, "--json", "val", "0", "g1", literal)
    assert code == 64
    assert data["kind"] == "PositionOutOfDomain"


def test_zero_denominator_in_a_literal_is_a_usage_error(capsys):
    code, data = run_json(capsys, "--json", "val", "2", "g1",
                          "el(pos(0, 0): 1/0)")
    assert code == 64
    assert data["kind"] == "FormulaSyntaxError"


@pytest.mark.parametrize("argv", [
    ["val", "0", "z", "el(tail: 1/3)"],
    ["val", "2", "z", "el(tail: 1/3)"],
    ["preds", "z", "el(tail: 1/3)"],
    ["eval", "z", "x > 0", "--env", "x=el(tail: 1/3)"],
    ["eval", "z", "el(tail: 1) > 0"],
])
def test_a_tail_without_a_terminal_omega_segment_is_a_usage_error(capsys, argv):
    code, data = run_json(capsys, "--json", *argv)
    assert code == 64
    assert data["kind"] == "PresentationError"


def test_a_repeated_literal_position_is_a_usage_error(capsys):
    code, data = run_json(capsys, "--json", "val", "0", "g1",
                          "el(pos(0, 1): 1, pos(0, 1): 2)")
    assert code == 64
    assert data["kind"] == "PresentationError"


def test_composite_coprime_domain_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "coprime_four.json"
    path.write_text(json.dumps({
        "name": "coprime_four", "mode": "hahn",
        "spine": {"segments": [{"kind": "omega"}], "colours": []},
        "ribs": [{"rib": {"name": "x", "domain": {"coprime": [4]},
                          "cut_complete": False, "nonstandard": False}}]}))
    code, data = run_json(capsys, "--json", "classify", str(path))
    assert code == 64
    assert data["kind"] == "PresentationError"


PRESENTATIONS = Path(__file__).parent / "presentations"
BAD_SEGMENT = PRESENTATIONS / "bad_segment.json"


@pytest.mark.parametrize("seg", ["x", None, [0], True, 1.5])
def test_a_segment_index_that_is_not_an_int_is_a_usage_error(tmp_path, capsys, seg):
    data = json.loads(BAD_SEGMENT.read_text())
    data["ribs"][0]["position"]["seg"] = seg
    path = tmp_path / "bad_segment.json"
    path.write_text(json.dumps(data))
    code, out = run_json(capsys, "--json", "classify", str(path))
    assert code == 64
    assert out == {"error": f"segment {seg!r} is not an int",
                   "kind": "PositionOutOfDomain"}


def test_the_bad_segment_presentation_is_refused(capsys):
    code, out = run_json(capsys, "--json", "classify", str(BAD_SEGMENT))
    assert code == 64
    assert out["kind"] == "PositionOutOfDomain"


def test_an_uncovered_segment_is_a_usage_error(capsys):
    path = str(PRESENTATIONS / "uncovered_segment.json")
    for command in ("check-m", "check-ur", "classify"):
        code, out = run_json(capsys, "--json", command, path)
        assert code == 64
        assert out == {"error": "no rib clause covers part of segment 1",
                       "kind": "PresentationError"}


def _z_at_ten(edit):
    data = json.loads((PRESENTATIONS / "z_at_ten.json").read_text())
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("command,text", [
    ("classify", (PRESENTATIONS / "not_json.json").read_text()),
    ("classify", (PRESENTATIONS / "no_name.json").read_text()),
    ("classify", _z_at_ten(lambda d: d.update(name=["x"]))),
    *(("classify", _z_at_ten(lambda d, seg=seg: d["ribs"].insert(1, {
        "rib": d["ribs"][0]["rib"], "segment": seg}))) for seg in ("0", 1)),
    ("classify", _z_at_ten(lambda d: d["ribs"][1]["rib"].update(
        cut_complete="no"))),
    ("classify", _z_at_ten(lambda d: d["spine"]["segments"][0].update(
        kind="fin", size=1.5))),
    ("pair-classify", json.dumps({"small": "sigma", "big": "sigma", "flags": 5})),
], ids=["not-json", "no-name", "name-not-a-string", "segment-not-an-int",
        "segment-out-of-range", "cut-complete-not-a-bool", "size-not-an-int",
        "flags-not-a-list"])
def test_a_malformed_presentation_is_a_usage_error(tmp_path, capsys,
                                                   command, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out = run_json(capsys, "--json", command, str(path))
    assert code == 64
    assert out["kind"] == "PresentationError"
