"""Tests of the benchmark's generators, reference checks and span arithmetic.

Run from the checkout root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _snapshot(workload: str, seed: int, index: int, workdir: str):
    ops = workloads.make_ops(workload, seed, index, ROOT, workdir)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return [(op.name, op.steps, op.doc) for op in ops], files


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_generators_are_deterministic(workload, tmp_path):
    a_dir, b_dir, c_dir = (tmp_path / n for n in "abc")
    for d in (a_dir, b_dir, c_dir):
        d.mkdir()
    ops_a, files_a = _snapshot(workload, 7, 1, str(a_dir))
    ops_b, files_b = _snapshot(workload, 7, 1, str(b_dir))
    ops_c, files_c = _snapshot(workload, 8, 1, str(c_dir))
    strip = lambda ops, d: [(n, tuple(tuple(a.replace(d, "") for a in s) for s in st), doc)
                            for n, st, doc in ops]
    assert strip(ops_a, str(a_dir)) == strip(ops_b, str(b_dir))
    assert files_a == files_b
    assert (strip(ops_a, str(a_dir)), files_a) != (strip(ops_c, str(c_dir)), files_c)


def _doc(workload: str, name: str) -> dict:
    ops = workloads.make_ops(workload, 0, 0, ROOT, "unused")
    return json.loads(next(op.doc for op in ops if op.name == name))


@pytest.mark.parametrize("name, value", [
    ("two-millionaires", 0.75), ("binary-sum", 0.5), ("crowds-shipped", 0.0809595)])
def test_qif_reference_values(name, value):
    s = reference.qif_tensor(_doc("qif-solve", name))
    assert reference.qif_optimum(s) == pytest.approx(value, abs=5e-8)


def test_compas_ldp_hidden_value_is_bracketed():
    doc = _doc("dp-solve", "ldp-compas")
    delta = np.full(len(doc["defender_actions"]), 1.0 / len(doc["defender_actions"]))
    assert reference.dp_lower_bound_margin(doc, 0.38915, delta) > 0
    assert reference.dp_lower_bound_margin(doc, 0.38925, delta) < 0


def test_shipped_crowds_matches_package_builder():
    from leakgames import jsonio
    from leakgames.scenarios import build_crowds, manet_config

    ours = jsonio.game_from_dict(_doc("qif-solve", "crowds-shipped"))
    theirs = build_crowds(manet_config())
    for key, channel in theirs.channels.items():
        np.testing.assert_allclose(ours.channels[key].matrix, channel.matrix, atol=1e-12)


def test_reference_checks_reject_wrong_answers():
    doc = _doc("qif-solve", "two-millionaires")
    report = {"value": 0.7, "certified": False,
              "defender_strategy": {"weights": [0.5, 0.5]}}
    fails, excess = reference.check_qif(doc, report, 1e-3, 0.75)
    assert len(fails) == 2 and excess == pytest.approx(-0.05)

    dp = _doc("dp-solve", "dp-example")
    assert reference.check_dp_visible(dp, {"value": 1.0})
    hidden = {"value": 1.0, "certified": True, "defender_strategy": {"weights": [0.5, 0.5]}}
    assert reference.check_dp_hidden(dp, hidden)[0]


def test_self_time_of_hand_built_tree():
    spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None, "op": "a"},
        {"name": "x", "start": 1.0, "end": 3.0, "parent": 0, "op": "a"},
        {"name": "y", "start": 2.0, "end": 5.0, "parent": 0, "op": "a"},
        {"name": "z", "start": 8.0, "end": 12.0, "parent": 0, "op": "a"},
        {"name": "w", "start": 2.0, "end": 2.5, "parent": 1, "op": "a"},
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_tracer_nests_spans():
    tr = Tracer()
    tr.op = "o"
    with tr.span("outer"):
        with tr.span("inner", bytes=3):
            pass
    assert [s["parent"] for s in tr.spans] == [None, 0]
    assert tr.spans[1]["bytes"] == 3 and tr.spans[1]["op"] == "o"
    assert tr.spans[0]["end"] >= tr.spans[1]["end"] >= tr.spans[1]["start"]


def test_tail_has_ten_ops_beyond_it():
    ms = [i / 1000 for i in range(1, 101)]
    summary = worker.latency_summary([ms[:50], ms[50:]])
    assert summary["op_ms.tail"] == pytest.approx(90.0)
    assert summary["tail_percentile"] == 90.0 and summary["ops"] == 100
    assert summary["op_ms.p50"] == pytest.approx((25.5 + 75.5) / 2)
    assert summary["wall_s"] == pytest.approx(sum(ms) / 2)


def test_times_are_scaled_to_the_reference_speed():
    summary = worker.latency_summary([[0.2, 0.4, 0.6], [0.1, 0.2, 0.3]], [2.0, 1.0])
    assert summary["op_ms.p50"] == pytest.approx(200.0)
    assert summary["wall_s"] == pytest.approx(0.6)
    assert summary["op_ms.p50.raw"] == pytest.approx(300.0)
    assert summary["wall_s.raw"] == pytest.approx(0.9)
    assert summary["slowness"] == pytest.approx(1.5)


def test_calibration_clock_spaces_its_chunks():
    clock = calibrate.Clock()
    clock.tick()
    clock.tick()
    assert len(clock.times) == 1 and clock.slowness() > 0


def test_traced_op_records_module_spans():
    op = next(o for o in workloads.make_ops("qif-solve", 0, 0, ROOT, "unused")
              if o.name == "binary-sum")
    tr = Tracer()
    tr.op = "0:binary-sum"
    with tr.span("op"):
        found = worker.traced_op(tr, op)
    worker._annotate(tr, found)
    worker.replay_op(tr, op, found, 0)
    names = {s["name"] for s in tr.spans}
    assert {"cli.args", "jsonio.parse", "qif.solve", "jsonio.dump", "core.validate",
            "qif.objective", "qif.kernel", "qif.project"} <= names
    layers = worker.layer_metrics(tr.spans, {"0:binary-sum": 1.0}, [(1.0, 1.1)])
    assert layers["qif.iterations"] == found["qif"].iterations
    assert layers["dp.solve_ms"] == 0.0
    assert layers["trace.overhead_s"] == pytest.approx(0.1)


def test_probe_ops_fill_only_modules_the_workload_never_calls(tmp_path):
    op = next(o for o in workloads.make_ops("qif-solve", 0, 0, ROOT, "unused")
              if o.name == "binary-sum")
    probe = next(o for o in workloads.probe_ops(0, str(tmp_path)) if o.name == "dp")
    tr = Tracer()
    assert worker.trace_op(tr, "0:binary-sum", op, 0)
    alone = worker.layer_metrics(tr.spans, {"0:binary-sum": 1.0}, [(1.0, 1.1)])
    assert worker.trace_op(tr, worker.PROBE + probe.name, probe, 0)
    layers = worker.layer_metrics(tr.spans, {"0:binary-sum": 1.0}, [(1.0, 1.1)])
    assert alone["dp.solve_ms"] == 0.0 and layers["dp.solve_ms"] > 0.0
    assert layers["dp.rounds"] >= 1 and layers["dp.lp_share"] > 0.0
    for name in ("jsonio.parse_ms", "qif.solve_ms", "cli.overhead_ms", "jsonio.bytes_out"):
        assert layers[name] == alone[name]


def test_runs_end_within_half_a_set_of_their_time():
    assert worker.more_sets([], 1.0) and worker.more_sets([9.0, 9.0], 1.0)
    assert worker.more_sets([4.0, 4.0, 4.0], 14.1)
    assert not worker.more_sets([4.0, 4.0, 4.0], 14.0)


def test_import_time_parser():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       120 |     480123 |   scipy.optimize\n"
           "import time:        50 |     700001 | leakgames.cli\n")
    assert run.cumulative_import_s(log, "scipy.optimize") == pytest.approx(0.480123)
    assert run.cumulative_import_s(log, "leakgames.cli") == pytest.approx(0.700001)
