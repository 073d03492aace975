"""Command-line interface: schema round-trips, exit codes, CSV dumps."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakgames.cli import main
from leakgames.core import ValidationError
from leakgames.jsonio import (
    _fmt_float,
    canonical_dumps,
    channel_to_dict,
    game_from_dict,
    game_to_dict,
)
from leakgames.scenarios import (
    build_binary_sum,
    build_dp_example,
    build_ldp_game,
    build_two_millionaires,
    manet_config,
    build_crowds,
    randomized_response,
)


ALL_BUILDERS = [
    build_two_millionaires,
    build_binary_sum,
    build_dp_example,
    build_ldp_game,
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_round_trip_identical_game(builder):
    game = builder()
    doc = game_to_dict(game)
    parsed = game_from_dict(json.loads(canonical_dumps(doc)))
    assert parsed == game


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_round_trip_byte_stable(builder):
    game = builder()
    text = canonical_dumps(game_to_dict(game))
    again = canonical_dumps(game_to_dict(game_from_dict(json.loads(text))))
    assert text == again


def test_round_trip_crowds_game():
    game = build_crowds(manet_config())
    text = canonical_dumps(game_to_dict(game))
    parsed = game_from_dict(json.loads(text))
    assert parsed == game


def test_canonical_floats_have_full_precision():
    text = canonical_dumps({"x": 0.1})
    assert json.loads(text)["x"] == 0.1


def _per_item(row):
    return "[" + ",".join(_fmt_float(x) for x in row) + "]"


@pytest.mark.parametrize(
    "row",
    [
        [-0.0],
        [0.0, -0.0, 5e-324, -5e-324],
        [2.2250738585072014e-308, 2.225073858507201e-308, 1e308, -1.7976931348623157e308],
        [0.1, 0.2, 0.30000000000000004, 1 / 3],
        [1.0, -2.0, 100.0, 1e16, 2.0**53 + 2, 1e22],
        [0.42571773865997686, 1e-15, 0.57428226134002214],
    ],
)
def test_float_row_matches_per_item_rule(row):
    # Rows of plain floats print in one format call; the text must be the
    # per-item rule's, as a list and as a tuple.
    assert canonical_dumps(row) == _per_item(row)
    assert canonical_dumps(tuple(row)) == _per_item(row)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=12))
def test_float_row_matches_per_item_rule_random(row):
    assert canonical_dumps(row) == _per_item(row)


def test_float_row_special_values():
    assert canonical_dumps([1.0, math.inf]) == '[1,"inf"]'
    assert canonical_dumps([-math.inf, 0.5]) == '["-inf",0.5]'
    with pytest.raises(ValidationError):
        canonical_dumps([math.nan])
    with pytest.raises(ValidationError):
        canonical_dumps([1.0, math.nan])
    assert canonical_dumps([]) == "[]"


def test_mixed_rows_keep_the_per_item_rule():
    assert canonical_dumps([1, 2.5, -0.0]) == "[1,2.5,-0]"
    assert canonical_dumps([True, 1.5, False]) == "[true,1.5,false]"
    assert canonical_dumps([np.float64(0.1), 1.0]) == "[0.10000000000000001,1]"
    assert canonical_dumps([np.float64(math.inf)]) == '["inf"]'
    assert canonical_dumps([[0.5, 0.25], [1, None]]) == "[[0.5,0.25],[1,null]]"


def _run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    return code, capsys.readouterr()


def test_build_then_solve_qif_pipe(tmp_path, capsys, monkeypatch):
    code, out = _run(capsys, ["build", "two-millionaires"])
    assert code == 0
    code, out = _run(
        capsys,
        ["solve", "qif", "-", "--tolerance", "1e-3", "--max-iter", "3000"],
        stdin_text=out.out,
        monkeypatch=monkeypatch,
    )
    report = json.loads(out.out)
    assert abs(report["value"] - 0.75) <= 1e-9
    assert code == 0


def test_build_then_solve_dp_visible_pipe(capsys, monkeypatch):
    code, out = _run(capsys, ["build", "dp-example"])
    assert code == 0
    code, out = _run(
        capsys,
        ["solve", "dp", "-", "--mode", "visible"],
        stdin_text=out.out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out.out)
    assert report["diagnostics"]["defender_action"] == "1"
    assert abs(report["value"] - 1.95) <= 5e-3


def test_solve_qif_rejects_visible_mode(tmp_path, capsys):
    # QIF is solved for hidden choice only; visible choice on binary-sum is
    # worth 1.0, so printing the hidden value 0.5 would be a wrong answer
    path = tmp_path / "game.json"
    path.write_text(canonical_dumps(game_to_dict(build_binary_sum())))
    code, out = _run(capsys, ["solve", "qif", str(path), "--mode", "visible"])
    assert code == 1
    assert out.out == ""
    assert "--mode visible" in out.err


def test_solve_dp_hidden_from_file(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(canonical_dumps(game_to_dict(build_dp_example())))
    code, out = _run(capsys, ["solve", "dp", str(path), "--mode", "hidden"])
    assert code == 0
    report = json.loads(out.out)
    assert abs(report["defender_strategy"]["weights"][0] - 0.14) <= 0.01


def test_measure_dp_level_randomized_response(tmp_path, capsys):
    chan = randomized_response(2.0, [f"v{i}" for i in range(8)])
    path = tmp_path / "chan.json"
    path.write_text(canonical_dumps(channel_to_dict(chan)))
    code, out = _run(capsys, ["measure", "dp-level", str(path)])
    assert code == 0
    record = json.loads(out.out)
    assert record["dp_level"] == pytest.approx(2.0, abs=1e-12)
    assert record["conforming"] is True


def test_measure_dp_level_nonconforming_reports_inf(tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(
        json.dumps(
            {"inputs": ["a", "b"], "outputs": ["y", "z"], "matrix": [[1, 0], [0.5, 0.5]]}
        )
    )
    code, out = _run(capsys, ["measure", "dp-level", str(path)])
    assert code == 0
    record = json.loads(out.out)
    assert record["dp_level"] == "inf"
    assert record["conforming"] is False


def test_measure_dp_level_explicit_pairs(tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(
        json.dumps(
            {"inputs": ["a", "b"], "outputs": ["y", "z"], "matrix": [[1, 0], [0.5, 0.5]]}
        )
    )
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([]))
    code, out = _run(capsys, ["measure", "dp-level", str(path), "--adjacency", str(pairs)])
    assert code == 0
    assert json.loads(out.out)["dp_level"] == 0.0


def test_measure_vulnerability(tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(
        json.dumps(
            {"inputs": ["0", "1"], "outputs": ["T", "F"], "matrix": [[1, 0], [0, 1]]}
        )
    )
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps([0.5, 0.5]))
    code, out = _run(
        capsys,
        ["measure", "vulnerability", str(path), "--prior", str(prior), "--gain", "bayes"],
    )
    assert code == 0
    assert json.loads(out.out)["posterior_vulnerability"] == 1.0


def test_measure_vulnerability_custom_gain(tmp_path, capsys):
    chan = tmp_path / "chan.json"
    chan.write_text(
        json.dumps(
            {"inputs": ["0", "1"], "outputs": ["T", "F"], "matrix": [[0.5, 0.5], [0.5, 0.5]]}
        )
    )
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps([0.5, 0.5]))
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"guesses": ["w1", "w2"], "table": [[2, 0], [0, 2]]}))
    code, out = _run(
        capsys,
        [
            "measure", "vulnerability", str(chan),
            "--prior", str(prior), "--gain", str(gain),
        ],
    )
    assert code == 0
    assert json.loads(out.out)["posterior_vulnerability"] == pytest.approx(1.0)


def test_build_crowds_from_config(tmp_path, capsys):
    cfg = {
        "nodes": ["n1", "n2"],
        "edges": [["n1", "n2"]],
        "forward_prob": 0.8,
        "attacker_sites": {"c": ["n1", "n2"]},
        "defender_sites": {"d": ["n1"]},
    }
    path = tmp_path / "crowds.json"
    path.write_text(json.dumps(cfg))
    code, out = _run(capsys, ["build", "crowds", str(path)])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["measure"]["kind"] == "qif"
    assert doc["inputs"] == ["n1", "n2"]


def test_closed_pipe_exits_without_traceback(tmp_path):
    # the 30-node MANET document (about 450 kB) overflows the pipe buffer, so
    # the build is still writing when the reader goes away
    config = manet_config()
    cfg = {
        "nodes": list(config.nodes),
        "edges": [list(e) for e in config.edges],
        "forward_prob": config.forward_prob,
        "attacker_sites": {k: list(v) for k, v in config.attacker_sites.items()},
        "defender_sites": {k: list(v) for k, v in config.defender_sites.items()},
    }
    path = tmp_path / "crowds.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "leakgames", "build", "crowds", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_build_ldp_custom_tables(tmp_path, capsys):
    tables = [
        {
            "name": "t1",
            "secrets": ["s0", "s1"],
            "attribute_values": ["a", "b"],
            "rows": [[0.9, 0.1], [0.2, 0.8]],
        },
        {
            "name": "t2",
            "secrets": ["s0", "s1"],
            "attribute_values": ["u", "v"],
            "rows": [[0.6, 0.4], [0.5, 0.5]],
        },
    ]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables))
    code, out = _run(
        capsys,
        ["build", "ldp", str(path), "--eps-strong", "0.5", "--eps-weak", "1.5"],
    )
    assert code == 0
    doc = json.loads(out.out)
    assert doc["defender_actions"] == ["1", "2"]


def test_audit_subcommand(capsys, monkeypatch):
    code, out = _run(capsys, ["build", "dp-example"])
    code, out = _run(
        capsys,
        ["audit", "-", "--seed", "1", "--priors", "10"],
        stdin_text=out.out,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    result = json.loads(out.out)
    assert result["ok"] is True


def test_csv_dump(tmp_path, capsys):
    game_path = tmp_path / "g.json"
    game_path.write_text(canonical_dumps(game_to_dict(build_dp_example())))
    csv_path = tmp_path / "out.csv"
    code, out = _run(
        capsys, ["solve", "dp", str(game_path), "--mode", "visible", "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "entity,value"
    assert any(line.startswith("defender_strategy[1],") for line in lines)
    assert any(line.startswith("value,") for line in lines)


# -- exit code taxonomy --------------------------------------------------------------

def test_exit_parse_error_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = _run(capsys, ["solve", "qif", str(path)])
    assert code == 3
    assert "error" in out.err


def test_exit_parse_error_on_missing_file(capsys):
    code, out = _run(capsys, ["solve", "qif", "/nonexistent/game.json"])
    assert code == 3


def test_exit_parse_error_on_missing_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"defender_actions": ["0"]}))
    code, out = _run(capsys, ["solve", "qif", str(path)])
    assert code == 3


def test_exit_validation_error_on_bad_channel(tmp_path, capsys):
    doc = game_to_dict(build_two_millionaires())
    doc["channels"]["0|0"] = [[0.9, 0.2], [0.1, 0.9]]  # row sums 1.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, ["solve", "qif", str(path)])
    assert code == 1
    assert "sums to" in out.err


def test_exit_validation_error_on_nonconforming_dp_game(tmp_path, capsys):
    doc = game_to_dict(build_dp_example())
    doc["channels"]["0|0"] = [[1.0, 0.0], [0.5, 0.5]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, ["solve", "dp", str(path)])
    assert code == 1
    assert "zero-pattern" in out.err


def test_exit_noncertified_solve(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(canonical_dumps(game_to_dict(build_two_millionaires())))
    code, out = _run(
        capsys, ["solve", "qif", str(path), "--tolerance", "1e-9", "--max-iter", "1"]
    )
    assert code == 2  # the LP needs two simplex iterations
    assert json.loads(out.out)["certified"] is False


def test_exit_parse_error_on_nan_literal(tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text('{"inputs": ["a", "b"], "outputs": ["y0", "y1"], '
                    '"matrix": [[NaN, 1], [0.5, 0.5]]}')
    code, out = _run(capsys, ["measure", "dp-level", str(path)])
    assert code == 3
    assert out.out == ""
    assert "NaN" in out.err


def test_exit_parse_error_on_infinity_in_game(tmp_path, capsys):
    doc = game_to_dict(build_two_millionaires())
    doc["measure"]["prior"] = [float("inf"), 0.5]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))  # writes the Infinity literal
    code, out = _run(capsys, ["solve", "qif", str(path)])
    assert code == 3
    assert "Infinity" in out.err


def test_exit_validation_error_on_overflowing_entry(tmp_path, capsys):
    # 1e999 is valid JSON but parses to inf, which the channel rejects
    path = tmp_path / "chan.json"
    path.write_text('{"inputs": ["a", "b"], "outputs": ["y0", "y1"], '
                    '"matrix": [[1e999, 1], [0.5, 0.5]]}')
    code, out = _run(capsys, ["measure", "dp-level", str(path)])
    assert code == 1
    assert "not a finite number" in out.err


def test_exit_success(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(canonical_dumps(game_to_dict(build_dp_example())))
    code, out = _run(capsys, ["solve", "dp", str(path), "--mode", "hidden"])
    assert code == 0
