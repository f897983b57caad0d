import json

import pytest

from chaincore.cli import main

RUNNING = {
    "n": 3,
    "generator": "distortion",
    "g": {"kind": "poly", "coeffs": [0, 2, -1]},
    "p": ["1/3", "1/3", "1/3"],
}

CONVEX2 = {"n": 2, "values": {"0": 0, "1": 0, "2": 0, "3": 1}}

NONSUB2 = {"n": 2, "values": {"0": 0, "1": 0, "2": 0, "3": 1}}

ADDITIVE = {"n": 2, "values": {"0": 0, "1": "1/4", "2": "3/4", "3": 1}}

FAMILY = {"n": 3, "members": [[0, 1], [1, 2]]}


@pytest.fixture
def instance(tmp_path):
    def write(obj, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_running_example(instance, capsys):
    code, out, _ = run(capsys, "check", instance(RUNNING))
    payload = json.loads(out)
    assert code == 0
    assert payload["grounded"] and payload["monotone"]
    assert payload["submodular"] and not payload["supermodular"]
    assert payload["dual"]["supermodular"]


def test_check_additive_both_flags(instance, capsys):
    code, out, _ = run(capsys, "check", instance(ADDITIVE))
    payload = json.loads(out)
    assert code == 0
    assert payload["submodular"] and payload["supermodular"]


def test_check_missing_subset_is_input_error(instance, capsys):
    path = instance({"n": 2, "values": {"0": 0, "1": 1, "3": 1}})
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "bitmask 2" in err


def test_core_running_example(instance, capsys):
    code, out, _ = run(capsys, "core", instance(RUNNING), "--B", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "sup-attainment"
    assert payload["passed"] and payload["unique"]
    assert payload["witness"]["weights"] == {"0": "1/3", "1": "5/9", "2": "1/9"}


def test_core_routes_convex_game_to_inf(instance, capsys):
    code, out, _ = run(capsys, "core", instance(CONVEX2), "--B", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "inf-attainment"
    assert "dual_route" in payload


def test_core_nonsubmodular_failure_lists_subset(instance, capsys):
    # monotone grounded but neither submodular nor supermodular: routed to
    # the sup check, whose witness overshoots v on {1,2}
    mixed = {"n": 3, "values": {
        "0": 0, "1": "1/2", "2": "1/2", "3": "1/2",
        "4": "1/2", "5": "1/2", "6": "1/2", "7": 1}}
    code, out, _ = run(capsys, "core", instance(mixed), "--B", "2")
    payload = json.loads(out)
    assert code == 1
    assert payload["kind"] == "sup-attainment"
    assert not payload["passed"]
    assert payload["context"]["core_violations"] == [6]
    assert payload["pretty_failures"]


def test_core_custom_base_chain(instance, capsys):
    code, out, _ = run(capsys, "core", instance(RUNNING), "--B", "2", "--chain", "2,1,0")
    payload = json.loads(out)
    assert code == 0
    assert payload["context"]["base_order"] == [2, 1, 0]
    code2, _, err = run(capsys, "core", instance(RUNNING), "--B", "2", "--chain", "2,2,0")
    assert code2 == 2


def test_core_explicit_subset_chain(instance, capsys):
    # same chain as the 2,1,0 permutation, written as subsets
    code, out, _ = run(capsys, "core", instance(RUNNING), "--B", "2", "--chain", "0;4;6;7")
    payload = json.loads(out)
    assert code == 0
    assert payload["context"]["base_order"] == [2, 1, 0]
    # strict inclusion violated
    code2, _, err = run(capsys, "core", instance(RUNNING), "--B", "2", "--chain", "0;4;2;7")
    assert code2 == 2
    assert "inclusion" in err


def test_core_coarse_chain_is_input_error(instance, capsys):
    # a valid chain, but its step 0 -> 3 adds two points
    code, out, err = run(capsys, "core", instance(RUNNING), "--B", "3", "--chain", "0;3;7")
    assert code == 2
    assert out == ""
    assert "maximal" in err


def test_core_b_outside_a(instance, capsys):
    code, _, err = run(capsys, "core", instance(RUNNING), "--A", "1", "--B", "2")
    assert code == 2
    assert "subset" in err


def test_choquet_running_example(instance, capsys):
    code, out, _ = run(capsys, "choquet", instance(RUNNING), "--f", "3,1,2")
    payload = json.loads(out)
    assert code == 0
    assert payload["integral"] == "22/9"
    assert payload["witness"]["weights"] == {"0": "5/9", "1": "1/9", "2": "1/3"}


def test_choquet_indicator(instance, capsys):
    code, out, _ = run(capsys, "choquet", instance(RUNNING), "--f", "0,1,0")
    payload = json.loads(out)
    assert code == 0
    assert payload["integral"] == "5/9"


def test_choquet_risk_flag(instance, capsys):
    code, out, _ = run(capsys, "choquet", instance(RUNNING), "--f", "1,0,-1", "--risk")
    payload = json.loads(out)
    assert code == 0
    assert payload["risk"] == "4/9"


def test_choquet_wrong_length(instance, capsys):
    code, _, err = run(capsys, "choquet", instance(RUNNING), "--f", "1,2")
    assert code == 2
    assert "expected 3" in err


def test_embed_family(instance, capsys):
    code, out, _ = run(capsys, "embed", instance(FAMILY))
    payload = json.loads(out)
    assert code == 0
    assert payload["f"] == ["1/3", "4/9", "1/9"]
    assert payload["chain"] == [0, 4, 5, 7]
    assert payload["separates_points"] and payload["chain_generates"]
    assert [r["passed"] for r in payload["recoveries"]] == [True, True]


def test_embed_empty_family(instance, capsys):
    code, out, _ = run(capsys, "embed", instance({"n": 2, "members": []}))
    payload = json.loads(out)
    assert code == 0
    assert payload["chain"] == [0, 3]
    assert not payload["separates_points"]
    assert payload["point_classes"] == ["{0,1}"]


def test_embed_non_separating_lists_classes(instance, capsys):
    code, out, _ = run(capsys, "embed", instance({"n": 3, "members": [[0, 1]]}))
    payload = json.loads(out)
    assert code == 0
    assert not payload["separates_points"]
    assert payload["point_classes"] == ["{0,1}", "{2}"]


def test_sweep_directory(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(RUNNING))
    (tmp_path / "b.json").write_text(json.dumps(CONVEX2))
    code = main(["sweep", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["passed"]
    routes = {s["instance"]: s["route"] for s in payload["instances"]}
    assert routes == {"a.json": "sup", "b.json": "inf"}
    assert all(s["pairs"] == 3 ** s["n"] for s in payload["instances"])


def test_sweep_empty_directory(tmp_path, capsys):
    code = main(["sweep", str(tmp_path)])
    assert code == 2


def test_sweep_names_broken_file(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"n": 2}))
    code = main(["sweep", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json" in err


def test_byte_stable_output(instance, capsys):
    path = instance(RUNNING)
    _, out1, _ = run(capsys, "core", path, "--B", "2")
    _, out2, _ = run(capsys, "core", path, "--B", "2")
    assert out1 == out2


def test_float_mode(instance, capsys):
    obj = {"n": 2, "values": {"0": 0.0, "1": 0.25, "2": 0.75, "3": 1.0}}
    code, out, _ = run(capsys, "--float", "check", instance(obj))
    payload = json.loads(out)
    assert code == 0
    assert payload["submodular"] and payload["supermodular"]


def test_float_mode_generator_instance(instance, capsys):
    code, out, _ = run(capsys, "--float", "check", instance(RUNNING))
    payload = json.loads(out)
    assert code == 0
    assert payload["submodular"] and not payload["supermodular"]
    code, out, _ = run(capsys, "--float", "core", instance(RUNNING), "--B", "2")
    assert code == 0 and json.loads(out)["passed"]


def test_pretty_mode(instance, capsys):
    code, out, _ = run(capsys, "--pretty", "check", instance(RUNNING))
    assert code == 0
    assert "\n  " in out  # indented


def test_eps_env_var_reaches_float_mode(instance, capsys, monkeypatch):
    # 0.24 vs 0.25: monotone only under a loose tolerance
    obj = {"n": 2, "values": {"0": 0.0, "1": 0.25, "2": 0.24, "3": 0.24}}
    code, out, _ = run(capsys, "--float", "check", instance(obj))
    assert not json.loads(out)["monotone"]
    monkeypatch.setenv("CHAINCORE_EPS", "0.05")
    code, out, _ = run(capsys, "--float", "check", instance(obj))
    assert json.loads(out)["monotone"]


@pytest.mark.parametrize("bad", ["nan", "-1"])
def test_bad_eps_is_input_error(instance, capsys, monkeypatch, bad):
    monkeypatch.setenv("CHAINCORE_EPS", bad)
    code, out, err = run(capsys, "--float", "core", instance(RUNNING), "--B", "2")
    assert code == 2
    assert out == ""
    assert "tolerance" in err
    # exact mode never reads the tolerance
    assert run(capsys, "core", instance(RUNNING), "--B", "2")[0] == 0


@pytest.mark.parametrize("bad", ["0", "-3"])
def test_choquet_samples_must_be_positive(instance, capsys, bad):
    code, out, err = run(capsys, "choquet", instance(RUNNING), "--f", "3,1,2", "--samples", bad)
    assert code == 2
    assert out == ""
    assert "samples" in err


@pytest.mark.parametrize("bad", ["0", "-1"])
def test_embed_recover_index_must_be_a_member(instance, capsys, bad):
    code, out, err = run(capsys, "embed", instance(FAMILY), "--recover", bad)
    assert code == 2
    assert out == ""
    assert "member index" in err


@pytest.mark.parametrize(
    "command, obj, extra",
    [
        ("core", {"n": True, "values": {"0": 0, "1": 1}}, ["--B", "0"]),
        ("embed", {"n": True, "members": [[0]]}, []),
    ],
    ids=["core", "embed"],
)
def test_bool_size_is_input_error(instance, capsys, command, obj, extra):
    # int(True) == 1: without the check this loads as a one-point instance
    code, out, err = run(capsys, command, instance(obj), *extra)
    assert code == 2
    assert out == ""
    assert "ground set size" in err


LOOSE_GROUND = {
    # a string is not a label list: "xy" must not read as the labels x and y
    "label string": ({"labels": "xy"}, "labels must be a list of strings"),
    "int labels": ({"labels": [1, 2]}, "labels must be a list of strings"),
    # the README asks for an integer: "2" must not load as 2 points
    "string size": ({"n": "2"}, "ground set size must be an integer"),
}


@pytest.mark.parametrize("case", sorted(LOOSE_GROUND))
@pytest.mark.parametrize(
    "command, obj, extra",
    [
        ("check", {"n": 2, "values": {"0": 0, "1": 1, "2": 1, "3": 2}}, []),
        ("core", {"n": 2, "values": {"0": 0, "1": 1, "2": 1, "3": 2}}, ["--B", "1"]),
        ("embed", {"n": 2, "members": [[0], [1]]}, []),
    ],
    ids=["check", "core", "embed"],
)
def test_loose_ground_set_is_input_error(instance, capsys, command, obj, extra, case):
    patch, message = LOOSE_GROUND[case]
    assert run(capsys, command, instance(obj), *extra)[0] == 0
    code, out, err = run(capsys, command, instance({**obj, **patch}), *extra)
    assert code == 2
    assert out == ""
    assert message in err
