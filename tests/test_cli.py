import hashlib
import io
import json
import math
import subprocess
import sys

import pytest

from nonresultant import case31
from nonresultant.case31 import i_d_loop, model_to_json
from nonresultant.cli import main
from nonresultant.exactalg import real_roots_exact

LINEAR_TRIPLE = {"n": 1, "field": "R", "polys": [["0", "1"], ["1", "1"], ["2", "1"]]}
ALL_EQUAL_TRIPLE = {"n": 1, "field": "R", "polys": [["1", "1"], ["1", "1"], ["1", "1"]]}
QUARTIC_PAIR = {
    "n": 1,
    "field": "R",
    "polys": [["1", "0", "0", "0", "1"], ["2", "1", "0", "0", "1"]],
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads(text):
    """Parse stdout as strict JSON: NaN and Infinity fail instead of
    passing as floats."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit-code matrix
# ---------------------------------------------------------------------------


def test_stability_dim_prints_value(capsys):
    code, out, _ = run(capsys, ["stability-dim", "--d", "7", "--m", "3", "--n", "1"])
    assert code == 0
    assert out.strip() == "7"


def test_stability_dim_domain_error(capsys):
    code, _, err = run(capsys, ["stability-dim", "--d", "4", "--m", "1", "--n", "1"])
    assert code == 1
    assert "excluded" in err


def test_member_false_is_success(capsys, monkeypatch):
    code, out, _ = run(capsys, ["member"], json.dumps(ALL_EQUAL_TRIPLE), monkeypatch)
    assert code == 0
    assert out.strip() == "false"


def test_member_true(capsys, monkeypatch):
    code, out, _ = run(capsys, ["member"], json.dumps(LINEAR_TRIPLE), monkeypatch)
    assert code == 0
    assert out.strip() == "true"


def test_malformed_json_is_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, ["member"], "{not json", monkeypatch)
    assert code == 2
    assert "malformed JSON" in err


def test_missing_field_is_usage_error(capsys, monkeypatch):
    code, _, err = run(capsys, ["member"], '{"n": 1, "polys": [["0","1"]]}', monkeypatch)
    assert code == 2
    assert "field" in err


def test_float_coefficients_are_usage_error(capsys, monkeypatch):
    doc = '{"n": 1, "field": "R", "polys": [[0.5, 1], [1, 1]]}'
    code, _, err = run(capsys, ["member"], doc, monkeypatch)
    assert code == 2
    assert "p/q" in err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["member"], '{"n": 1, "field": "R", "polys": [["3/0", "1"], ["1", "1"]]}'),
        (["jet", "--n", "2"], '["3/0", "1"]'),
    ],
    ids=["member", "jet"],
)
def test_zero_denominator_is_usage_error(capsys, monkeypatch, argv, doc):
    code, out, err = run(capsys, argv, doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert "zero denominator" in err and "Traceback" not in err


def test_domain_error_exit_one(capsys, monkeypatch):
    # mismatched degrees break the pair map's precondition
    doc = '{"n": 1, "field": "R", "polys": [["0", "1"], ["1", "0", "1"]]}'
    code, _, err = run(capsys, ["rp1-degree"], doc, monkeypatch)
    assert code == 1
    assert err.startswith("nonresultant:")


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--case", "12", "--d", "4", "--trials", "5", "--seed", "1", "--bogus"])
    assert exc.value.code == 2


def test_missing_input_file(capsys):
    code, _, err = run(capsys, ["member", "--input", "/nonexistent/path.json"])
    assert code == 2
    assert "cannot read" in err


def test_input_file_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_bytes(b'{"n": 1, "polys": [["\xff"]]}')
    code, out, err = run(capsys, ["member", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert "cannot read --input" in err and "utf-8" in err


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def test_jet_components(capsys, monkeypatch):
    code, out, _ = run(capsys, ["jet", "--n", "2"], '["-2", "0", "1"]', monkeypatch)
    assert code == 0
    assert loads(out) == [["-2", "0", "1"], ["-2", "2", "1"]]


def test_degree_prints_common_degree(capsys, monkeypatch):
    code, out, _ = run(capsys, ["degree"], json.dumps(QUARTIC_PAIR), monkeypatch)
    assert code == 0
    assert out.strip() == "4"
    with pytest.raises(SystemExit) as exc:  # the covector seed had no effect and is gone
        main(["degree", "--seed", "3"])
    assert exc.value.code == 2


def test_rp1_degree(capsys, monkeypatch):
    doc = '{"n": 1, "field": "R", "polys": [["0", "1"], ["1", "1"]]}'
    code, out, _ = run(capsys, ["rp1-degree"], doc, monkeypatch)
    assert code == 0
    assert out.strip() == "1"


def test_r_d_reports_exact_value(capsys, monkeypatch):
    doc = '{"f1": ["0", "-1", "0", "1"], "f2": ["1"], "f3": ["0", "1"]}'
    code, out, _ = run(capsys, ["r-d"], doc, monkeypatch)
    assert code == 0
    payload = loads(out)
    assert payload["r_tilde_exact"] == "2"
    assert payload["r_d"] == [1.0, 0.0]


def test_r_d_isolates_the_real_roots_once(capsys, monkeypatch):
    isolated = []

    def counting(f):
        isolated.append(f)
        return real_roots_exact(f)

    monkeypatch.setattr(case31, "real_roots_exact", counting)
    doc = '{"f1": ["0", "-2", "0", "1"], "f2": ["1"], "f3": ["0", "1"]}'
    code, out, _ = run(capsys, ["r-d"], doc, monkeypatch)
    assert code == 0 and loads(out)["r_tilde_exact"] is None
    assert len(isolated) == 1


def test_r_d_with_a_root_beyond_the_float_range_is_domain_error(capsys, monkeypatch):
    doc = json.dumps({"f1": ["-1" + "0" * 1000, "0", "0", "1"], "f2": ["1"], "f3": ["0", "1"]})
    code, out, err = run(capsys, ["r-d"], doc, monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("nonresultant: ") and "float range" in err and "Traceback" not in err


@pytest.mark.parametrize("far", [3 * 10**300, 2**1000], ids=["3e300", "2^1000"])
def test_r_d_with_r_tilde_beyond_the_float_range_is_domain_error(capsys, monkeypatch, far):
    # f1 = (z + far)(z^2 - 1): the factor 1 + i*far^2 at the root -far is
    # too large for a float, though far itself is not
    doc = json.dumps({"f1": [str(-far), "-1", str(far), "1"], "f2": ["1"], "f3": ["0", "0", "1"]})
    code, out, err = run(capsys, ["r-d"], doc, monkeypatch)
    assert (code, out) == (1, "")
    assert err == "nonresultant: r_tilde lies beyond the float range\n"


def test_pi1_on_a_loop_that_leaves_the_space_is_domain_error(capsys, monkeypatch):
    # f1 = z^3 with constant (f2, f3); the first segment, (1, 1) -> (-2, -2),
    # passes through (0, 0) at u = 1/3
    vertices = [("1", "1"), ("-2", "-2"), ("-1", "1"), ("1", "1")]
    loop = [{"f1": ["0", "0", "0", "1"], "f2": [a], "f3": [b]} for a, b in vertices]
    code, out, err = run(capsys, ["pi1"], json.dumps(loop), monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("nonresultant: ") and "segment 0" in err and "[1/3, 1/3]" in err


def test_pi1_on_sampled_loop(capsys, monkeypatch):
    for d in (3, 5, 7):
        samples = [model_to_json(i_d_loop(d, 2 * math.pi * k / 48)) for k in range(48)]
        samples.append(samples[0])
        code, out, _ = run(capsys, ["pi1"], json.dumps(samples), monkeypatch)
        assert (code, out) == (0, "1\n")


def test_pi1_prints_the_exact_class_where_a_coarse_lift_read_one(capsys, monkeypatch):
    # f1 = (z + 5)(z - 2/3)(z - 3) at every vertex; the class is 2
    vertices = [
        (["-1", "-1/2"], ["-4/3", "1/3"]),
        (["5/4", "8"], ["-4/3", "4/3"]),
        (["-3", "-7/3"], ["-1", "8"]),
        (["1/2", "-5/3"], ["7", "3"]),
        (["1/2", "1"], ["1", "-8"]),
        (["4", "-5/3"], ["-7/3", "2/3"]),
        (["-3", "-3"], ["-7/4", "-5/4"]),
        (["5/2", "3"], ["-1/2", "9"]),
        (["-7/4", "-3/4"], ["-2", "-7/4"]),
    ]
    loop = [{"f1": ["10", "-49/3", "4/3", "1"], "f2": a, "f3": b} for a, b in vertices]
    code, out, _ = run(capsys, ["pi1"], json.dumps(loop + loop[:1]), monkeypatch)
    assert (code, out) == (0, "2\n")


def test_electric_degree_from_pairs(capsys, monkeypatch):
    doc = "[[0.0, 1.0], [-1.0, 1.0], [4.0, 0.0]]"
    code, out, _ = run(capsys, ["electric-degree"], doc, monkeypatch)
    assert code == 0
    assert out.strip() == "2"


def test_electric_degree_rejects_boolean_coordinates(capsys, monkeypatch):
    code, out, err = run(capsys, ["electric-degree"], "[[true, 0], [0, 1]]", monkeypatch)
    assert code == 2
    assert out == ""
    assert "booleans are not coordinates" in err


@pytest.mark.parametrize(
    "doc",
    [
        "[[NaN, 0.0]]",
        "[[NaN, 1.0]]",
        "[[Infinity, 1.0]]",
        "[[0.0, Infinity]]",
        "[[NaN, 1.0], [NaN, 1.0]]",
        "[[0.0, NaN]]",
        "[[0.0, -Infinity]]",
        "[[-Infinity, 0.0]]",
    ],
)
def test_electric_degree_rejects_non_finite_points(capsys, monkeypatch, doc):
    # json.loads reads NaN and Infinity; no such point is a configuration
    code, out, err = run(capsys, ["electric-degree"], doc, monkeypatch)
    assert code == 2
    assert out == ""
    assert "configuration points must be finite" in err


def test_census_csv(capsys):
    code, out, _ = run(
        capsys, ["census", "--case", "12", "--d", "5", "--trials", "100", "--seed", "1"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#") and "seed=1" in lines[0]
    assert lines[1] == "j,count"
    rows = [line.split(",") for line in lines[2:]]
    assert {int(j) for j, _ in rows} <= {0, 1, 2}
    assert sum(int(c) for _, c in rows) == 100


def test_census_json(capsys):
    code, out, _ = run(
        capsys,
        ["census", "--case", "21", "--d", "2", "--trials", "60", "--seed", "4", "--format", "json"],
    )
    assert code == 0
    payload = loads(out)
    assert payload["seed"] == 4
    assert {j for j, _ in payload["counts"]} <= {-2, 0, 2}


def test_stabilize_output_feeds_member(capsys, monkeypatch):
    code, out, _ = run(capsys, ["stabilize"], json.dumps(LINEAR_TRIPLE), monkeypatch)
    assert code == 0
    report = loads(out)
    assert report["case"] == "31"
    assert report["member_out"] is True
    code2, out2, _ = run(capsys, ["member"], json.dumps(report["output"]), monkeypatch)
    assert code2 == 0
    assert out2.strip() == "true"


def test_coefficients_have_no_digit_limit(capsys, monkeypatch):
    # 5000 digits: past CPython's default limit on int <-> str conversion
    big = "7" + "3" * 4999
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["jet", "--n", "2"], f'["{big}", "0", "1"]', monkeypatch)
    assert code == 0
    assert loads(out) == [[big, "0", "1"], [big, "2", "1"]]
    pair = {"n": 1, "field": "R", "polys": [[big, "1"], ["2", "1"]]}
    code, out, _ = run(capsys, ["member"], json.dumps(pair), monkeypatch)
    assert (code, out.strip()) == (0, "true")
    as_literal = '{"n": 1, "field": "R", "polys": [[%s, "1"], ["2", "1"]]}' % big
    code, out, _ = run(capsys, ["member"], as_literal, monkeypatch)
    assert (code, out.strip()) == (0, "true")
    triple = {"n": 1, "field": "R", "polys": [[big, "1"], ["2", "1"], ["3", "1"]]}
    code, out, _ = run(capsys, ["stabilize"], json.dumps(triple), monkeypatch)
    assert code == 0
    report = loads(out)
    assert report["member_out"] is True
    assert max(len(c) for f in report["output"]["polys"] for c in f) >= 5000
    code, out, _ = run(capsys, ["member"], json.dumps(report["output"]), monkeypatch)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, ["stabilize", "--T", f"{big}/3"], json.dumps(LINEAR_TRIPLE), monkeypatch)
    assert (code, loads(out)["member_out"]) == (0, True)
    with pytest.raises(SystemExit):  # a usage error restores the limit too
        main(["jet"])
    assert sys.get_int_max_str_digits() == limit


def test_sweep_stdout_and_file_agree(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    argv = ["sweep", "--case", "12", "--d", "4", "--trials", "80", "--seed", "6"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    code2, out2, _ = run(capsys, argv + ["--out", str(out_path)])
    assert code2 == 0 and out2 == ""
    assert out_path.read_bytes().decode("ascii") == out.strip()
    payload = loads(out)
    assert payload["failures"] == 0
    assert payload["seed"] == 6


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_sweep_out_to_an_unwritable_path_is_usage_error(capsys, tmp_path, where):
    path = tmp_path / "no-such-dir" / "x.json" if where == "missing" else tmp_path
    argv = ["sweep", "--case", "12", "--d", "3", "--trials", "2", "--seed", "1", "--out", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"nonresultant: input error: cannot write --out {path}: ")
    assert "Traceback" not in err


def test_sweep_31_at_degree_one_is_domain_error(capsys):
    # every draw fails the model's degree check; no draw is retried
    code, out, err = run(capsys, ["sweep", "--case", "31", "--d", "1", "--trials", "3", "--seed", "1"])
    assert (code, out) == (1, "")
    assert "degree >= 2" in err


@pytest.mark.parametrize("case", ["21", "12", "31"])
def test_sweep_rejects_a_negative_trial_count(capsys, case):
    argv = ["sweep", "--case", case, "--d", "3", "--seed", "1", "--trials"]
    code, out, err = run(capsys, argv + ["-1"])
    assert (code, out) == (1, "")
    assert "trial count must be nonnegative" in err
    code, out, _ = run(capsys, argv + ["0"])
    assert code == 0
    assert loads(out)["trials"] == 0


def test_module_entry_point():
    run_proc = subprocess.run(
        [sys.executable, "-m", "nonresultant", "stability-dim", "--d", "7", "--m", "3", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert run_proc.returncode == 0
    assert run_proc.stdout.strip() == "7"


def test_repeated_calls_match_fresh_processes(capsys, monkeypatch):
    # one process serves many calls with one parser; a usage error in
    # between must not change what a later call prints
    calls = [
        (["r-d"], json.dumps(model_to_json(i_d_loop(3, 0.7)))),
        (["member"], "{not json"),
        (["stability-dim", "--d", "7", "--m", "3", "--n", "1", "--bogus"], ""),
        (["r-d"], json.dumps(model_to_json(i_d_loop(3, 0.7)))),
    ]
    for argv, stdin_text in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "nonresultant", *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def _loop_json(d, samples):
    loop = [model_to_json(i_d_loop(d, 2 * math.pi * k / samples)) for k in range(samples)]
    return json.dumps(loop + loop[:1])


# sha256 of stdout and the exit code of each call; stdout is a contract, so a
# change to any of these bytes must be deliberate
PINNED_CALLS = [
    (["member"], json.dumps(LINEAR_TRIPLE)),
    (["member"], json.dumps(ALL_EQUAL_TRIPLE)),
    (["jet", "--n", "3"], '["1/2", "-3", "0", "2/7", "1"]'),
    (["degree"], json.dumps(QUARTIC_PAIR)),
    (["rp1-degree"], '{"n": 1, "field": "R", "polys": [["6", "-5", "1"], ["-1", "0", "1"]]}'),
    (["r-d"], json.dumps(model_to_json(i_d_loop(5, 0.3)))),
    (["electric-degree"], "[[0.5, 2.0], [-1.0, 0.25], [3.0, 0.0], [-2.0, 0.0]]"),
    (["stability-dim", "--d", "9", "--m", "2", "--n", "2"], None),
    (["pi1"], _loop_json(5, 24)),
    (["census", "--case", "12", "--d", "5", "--trials", "100", "--seed", "1"], None),
    (["census", "--case", "21", "--d", "4", "--trials", "60", "--seed", "4", "--format", "json"], None),
    (["stabilize"], json.dumps(LINEAR_TRIPLE)),
    (["stabilize", "--T", "25/2"], '{"n": 2, "field": "R", "polys": [["2", "-3", "1"], ["-1", "0", "0", "1"]]}'),
    (["sweep", "--case", "21", "--d", "4", "--trials", "40", "--seed", "2"], None),
    (["sweep", "--case", "12", "--d", "5", "--trials", "40", "--seed", "3"], None),
    (["sweep", "--case", "31", "--d", "3", "--trials", "12", "--seed", "5"], None),
]
PINS = [
    (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),  # member
    (0, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),  # member
    (0, "771fa7f740074bfa2aaf59c3681f78194bc4903d51aeccaaf72272632d859157"),  # jet
    (0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),  # degree
    (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),  # rp1-degree
    (0, "f7f9f5900c70aa7ff0278456d7321da36a77ff0e2e64eb6ff2a411633c69fa4c"),  # r-d
    (0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),  # electric-degree
    (0, "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a"),  # stability-dim
    (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),  # pi1
    (0, "116153947c3fb24549afea8f8aca14122e675e708e69eba71361b4eb3041ec73"),  # census
    (0, "64396f3670a1cffb3f74c38a329d8d9a7f0834e857ebf79dffe28ae5efc34333"),  # census
    (0, "8db780023606696950f5427ad992ddcb7258d166b5585f3ef28a5f1295fd48d7"),  # stabilize
    (0, "8cd4772ab8f0778d851d404257e07793421b6fc567d425f8a467da9253072b93"),  # stabilize
    (0, "9c80c90ea01ddfbdc889ca6e028b03d55364684b677710dcc6e46e451aefb8bc"),  # sweep
    (0, "b76086388edc366fd63da7df93f68b37fa66cd21ab6010605a51aa2466591648"),  # sweep
    (0, "5f212e438e68002d3bf42676a94f9e097c384654f71f485674c7589ef81ef086"),  # sweep
]


@pytest.mark.parametrize("index", range(len(PINNED_CALLS)))
def test_cli_stdout_is_pinned(capsys, monkeypatch, index):
    argv, stdin_text = PINNED_CALLS[index]
    code, out, _ = run(capsys, argv, stdin_text, monkeypatch)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[index]
