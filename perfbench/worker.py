"""Runs one workload in a fresh interpreter and prints its measurements.

The load is one closed-loop client: ops run one after another in this
process and thread, each calling ``leakgames.cli.run(argv)`` with
standard input and output redirected.  Op sets are generated and their
answers checked outside the timed region.  With ``--trace 1`` every set
is run once untraced and once through the same public functions the CLI
calls, each call wrapped in a span, followed by replays that time single
calls (per-call costs, not shares of an op's time).  After the sets, a
few small probe ops are traced the same way, to measure the modules the
workload itself never calls.

Usage (from the checkout root, with ``src`` on PYTHONPATH)::

    python3 perfbench/worker.py --workload dp-solve --seed 1 --seconds 22 \
        --trace 0 --workdir perfbench/out/work
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import calibrate
import workloads
from reference import check_build_audit, check_dp_hidden, check_dp_visible, check_qif, \
    qif_optimum, qif_tensor
from spans import Tracer, self_times

from leakgames import cli, jsonio

#: A run measures at least this many op sets, however long they take.
MIN_SETS = 3
TAIL_BEYOND = 10
REPLAY_REPS = 5
REPLAY_SAMPLE = 8


def more_sets(spent: list[float], seconds: float) -> bool:
    """Whether to start another op set, given the measured time of each so far.

    A set is started while the run would end nearer to ``seconds`` with
    it than without it, so the measured time is ``seconds`` give or take
    half a set, rather than up to a whole set over.
    """
    return len(spent) < MIN_SETS or sum(spent) + statistics.fmean(spent) / 2 < seconds


# -- running ops ------------------------------------------------------------------

def run_cli(argv, stdin_text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_op(op: workloads.Op) -> list[tuple[int, str, str]]:
    results, prev = [], ""
    for i, argv in enumerate(op.steps):
        stdin_text = prev if op.pipe and i > 0 else (op.doc or "")
        results.append(run_cli(argv, stdin_text))
        prev = results[-1][1]
    return results


def timed_set(ops) -> tuple[list[float], list, float]:
    """Run a set closed-loop; per-op latencies, outputs and the set's slowness.

    Calibration chunks run between ops, outside the op latencies; see
    ``calibrate.py``.
    """
    lat, outs = [], []
    clock = calibrate.Clock()
    for op in ops:
        clock.tick()
        t0 = time.perf_counter()
        try:
            res = run_op(op)
        except Exception as exc:  # an op that raises is a failed op
            res = exc
        lat.append(time.perf_counter() - t0)
        outs.append(res)
    return lat, outs, clock.slowness()


# -- reference checks -------------------------------------------------------------

def _value_ok(report: dict) -> bool:
    v = report.get("value")
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_op(op: workloads.Op, res, stats: dict) -> list[str]:
    """Failure messages for one op; updates certification and excess stats."""
    if isinstance(res, Exception):
        return [f"raised {type(res).__name__}: {res}"]
    fails = []
    for argv, (code, out, err) in zip(op.steps, res):
        if code not in (0, 2):
            fails.append(f"{' '.join(argv[:2])} exited {code}: {err.strip()[:200]}")
        if argv[0] == "solve":
            stats["solves"] += 1
            stats["uncertified"] += code == 2
    if fails:
        return fails
    if op.steps[0][0] == "build":
        return check_build_audit(res[0][1], res[1][1])
    doc = json.loads(op.doc)
    reports = [json.loads(out) for _, out, _ in res]
    if not all(_value_ok(r) for r in reports):
        return ["non-finite value"]
    if op.steps[0][1] == "qif":
        fails, excess = check_qif(doc, reports[0], workloads.QIF_TOLERANCE,
                                  qif_optimum(qif_tensor(doc)))
        stats["value_excess"].append(excess)
        return fails
    hidden, lag = check_dp_hidden(doc, reports[0])
    stats["hidden_lag"].append(lag)
    return hidden + check_dp_visible(doc, reports[1])


# -- traced execution ---------------------------------------------------------------

def _args(argv):
    return cli.build_parser().parse_args(list(argv))


def _solver_kwargs(args) -> dict:
    return {k: v for k, v in (("tolerance", args.tolerance), ("max_iter", args.max_iter))
            if v is not None}


def _dump(tr: Tracer, record: dict) -> str:
    with tr.span("jsonio.dump") as s:
        text = jsonio.canonical_dumps(record)
    s["bytes"] = len(text.encode("utf-8")) + 1
    return text


def _parse_game(tr: Tracer, text: str):
    with tr.span("jsonio.parse", bytes=len(text.encode("utf-8"))):
        return jsonio.game_from_dict(json.loads(text))


def traced_op(tr: Tracer, op: workloads.Op) -> dict:
    """Call the functions the CLI calls for this op, one span per module call."""
    from leakgames.audits import audit_game
    from leakgames.dp import solve_dp_hidden, solve_dp_visible
    from leakgames.qif import solve_qif
    from leakgames import scenarios

    found: dict = {}
    prev = ""
    for i, argv in enumerate(op.steps):
        with tr.span("step:" + argv[0]):
            with tr.span("cli.args"):
                args = _args(argv)
            if argv[0] == "solve":
                game = found["game"] = _parse_game(tr, op.doc)
                if args.kind == "qif":
                    with tr.span("qif.solve"):
                        report = found["qif"] = solve_qif(game, **_solver_kwargs(args))
                elif args.mode == "hidden":
                    with tr.span("dp.solve"):
                        report = found["hidden"] = solve_dp_hidden(game, **_solver_kwargs(args))
                else:
                    with tr.span("dp.visible"):
                        report = solve_dp_visible(game)
                _dump(tr, jsonio.report_to_dict(report))
            elif argv[0] == "build":
                if args.what == "crowds":
                    with open(args.config, encoding="utf-8") as fh:
                        text = fh.read()
                    with tr.span("jsonio.parse", bytes=len(text.encode("utf-8"))):
                        found["config"] = jsonio.crowds_config_from_dict(json.loads(text))
                    with tr.span("scenarios.build"):
                        game = scenarios.build_crowds(found["config"])
                elif args.what == "ldp":
                    tables = None
                    if args.config is not None:
                        with open(args.config, encoding="utf-8") as fh:
                            text = fh.read()
                        with tr.span("jsonio.parse", bytes=len(text.encode("utf-8"))):
                            tables = jsonio.correlation_tables_from_json(json.loads(text))
                    with tr.span("scenarios.build"):
                        game = scenarios.build_ldp_game(tables, eps_strong=args.eps_strong,
                                                        eps_weak=args.eps_weak)
                else:
                    with tr.span("scenarios.build"):
                        game = scenarios.build_dp_example()
                with tr.span("jsonio.dump") as s:
                    prev = jsonio.canonical_dumps(jsonio.game_to_dict(game))
                s["bytes"] = len(prev.encode("utf-8")) + 1
            else:
                game = found["game"] = _parse_game(tr, prev)
                with tr.span("audits.audit"):
                    result = audit_game(game, seed=args.seed, n_priors=args.priors)
                _dump(tr, result)
    return found


def _replay(tr: Tracer, name: str, fn, reps: int = 1, **attrs):
    out = None
    for _ in range(reps):
        with tr.span(name, replay=True, **attrs):
            out = fn()
    return out


def _sample(items, k: int = REPLAY_SAMPLE):
    items = list(items)
    if len(items) <= k:
        return items
    return [items[round(i * (len(items) - 1) / (k - 1))] for i in range(k)]


def replay_op(tr: Tracer, op: workloads.Op, found: dict, seed: int) -> None:
    """Time single calls into each module the op exercised."""
    from leakgames import core, scenarios
    from leakgames.algebra import hidden_choice
    from leakgames.audits import check_bayes_hypothesis_bound, random_priors
    from leakgames.dp import LpProblem, build_ratio_terms, solve_dp_hidden, solve_dp_visible, \
        solve_lp
    from leakgames.measures import dp_level
    from leakgames.qif import QifObjective, project_simplex

    game = found["game"]
    chans = list(game.channels.values())
    _replay(tr, "core.validate", lambda: core.GameSpec(
        game.defender_actions, game.attacker_actions, dict(game.channels), game.measure))
    for c in _sample(chans):
        rows = c.matrix.tolist()
        _replay(tr, "core.channel", lambda: core.channel_from_rows(c.inputs, c.outputs, rows))

    if game.is_qif():
        obj = _replay(tr, "qif.objective", lambda: QifObjective(game))
        n_d = len(game.defender_actions)
        delta = (found["qif"].defender_strategy.weights if "qif" in found
                 else np.full(n_d, 1.0 / n_d))
        n_w = game.measure.gain.table.shape[0]
        size = len(game.attacker_actions) * n_d * n_w * len(game.outputs)
        _, h = _replay(tr, "qif.kernel", lambda: obj.value_and_subgradient(delta),
                       REPLAY_REPS, elements=size)
        _replay(tr, "qif.project", lambda: project_simplex(delta - 0.01 * h), REPLAY_REPS)
    else:
        adjacency = game.measure.adjacency
        hidden = found.get("hidden")
        if hidden is None:  # the audit solved it inside audit_game
            hidden = _replay(tr, "audits.solve", lambda: solve_dp_hidden(game))
            _replay(tr, "audits.solve", lambda: solve_dp_visible(game))
        f, g = _replay(tr, "dp.terms", lambda: build_ratio_terms(game))
        tr.spans[-1]["count"] = int(f.shape[0])
        for lam in _sample(hidden.diagnostics.get("lambda_history", [])):
            _replay(tr, "dp.lp", lambda: solve_lp(LpProblem(f, g, lam)))
        for c in _sample(chans):
            _replay(tr, "measures.dp_level", lambda: dp_level(c, adjacency), REPLAY_REPS)
        delta = hidden.defender_strategy.weights
        for a in _sample(game.attacker_actions):
            family = game.channels_for_attack(a)
            _replay(tr, "algebra.hidden_choice", lambda: hidden_choice(delta, family))
        if op.steps[0][0] == "build":
            priors = random_priors(game.inputs, 50, seed)
            for c in _sample(chans, 4):
                _replay(tr, "audits.hypothesis",
                        lambda: check_bayes_hypothesis_bound(c, adjacency, priors))
    if "config" in found:
        cfg = found["config"]
        for site in _sample(cfg.defender_sites, 3):
            _replay(tr, "scenarios.crowds_channel",
                    lambda: scenarios.crowds_channel(cfg, site, site))


# -- metrics ----------------------------------------------------------------------

def latency_summary(sets: list[list[float]], slowness: list[float] | None = None) -> dict:
    """Set time, median and tail op latency of a run, at the reference speed.

    Each set's latencies are divided by its slowness first.  ``wall_s`` is
    the mean set time.  The median is taken within each set and averaged
    over the sets.  The tail is the highest percentile of all ops with at
    least TAIL_BEYOND ops beyond it.  The ``.raw`` figures are as timed.
    """
    slowness = slowness or [1.0] * len(sets)
    scaled = [[t / f for t in lat] for lat, f in zip(sets, slowness)]
    ordered = sorted(t for lat in scaled for t in lat)
    n = len(ordered)
    out = {"wall_s": statistics.fmean(sum(lat) for lat in scaled),
           "wall_s.raw": statistics.fmean(sum(lat) for lat in sets),
           "op_ms.p50": 1e3 * statistics.fmean(statistics.median(lat) for lat in scaled),
           "op_ms.p50.raw": 1e3 * statistics.fmean(statistics.median(lat) for lat in sets),
           "slowness": statistics.fmean(slowness),
           "ops": n}
    if n > TAIL_BEYOND:
        out["op_ms.tail"] = 1e3 * ordered[n - TAIL_BEYOND - 1]
        out["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
    else:
        out["op_ms.tail"] = 1e3 * ordered[-1]
        out["tail_percentile"] = 100.0
    return out


def _mean(values, scale=1.0) -> float | None:
    values = list(values)
    return scale * statistics.fmean(values) if values else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


MODULES = ("jsonio.", "core.", "qif.", "dp.", "measures.", "algebra.", "scenarios.", "audits.")
#: Op ids of the probe ops run after the op sets of a traced run.
PROBE = "probe:"


def module_metrics(spans: list[dict]) -> dict:
    """Per-module metrics of some spans; None where they hold no span to measure.

    Durations and counts are means per call, so they add up to the time a
    module takes per op set; rates and shares are ratios of totals.
    """
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def secs(name) -> list[float]:
        return [s["end"] - s["start"] for s in named.get(name, [])]

    def total(name, key=None) -> float:
        return sum(s[key] for s in named.get(name, [])) if key else sum(secs(name))

    # dp.lp replays sample the rounds of one solve; scale their mean to all rounds.
    lp: dict[str, list[float]] = {}
    for s in named.get("dp.lp", []):
        lp.setdefault(s["op"], []).append(s["end"] - s["start"])
    hidden = [s for s in named.get("dp.solve", []) if s["op"] in lp]
    lp_total = sum(s["rounds"] * statistics.fmean(lp[s["op"]]) for s in hidden)
    hidden_total = sum(s["end"] - s["start"] for s in hidden)
    kernel_flops = 2.0 * total("qif.kernel", "elements")

    return {
        "jsonio.parse_ms": _mean(secs("jsonio.parse"), 1e3),
        "jsonio.parse_MBps": _ratio(total("jsonio.parse", "bytes") / 1e6, total("jsonio.parse")),
        "jsonio.dump_ms": _mean(secs("jsonio.dump"), 1e3),
        "jsonio.dump_MBps": _ratio(total("jsonio.dump", "bytes") / 1e6, total("jsonio.dump")),
        "core.validate_ms": _mean(secs("core.validate"), 1e3),
        "core.channel_us": _mean(secs("core.channel"), 1e6),
        "qif.objective_ms": _mean(secs("qif.objective"), 1e3),
        "qif.solve_ms": _mean(secs("qif.solve"), 1e3),
        "qif.iterations": _mean(s["iterations"] for s in named.get("qif.solve", [])),
        "qif.iter_us": _ratio(1e6 * total("qif.solve"), total("qif.solve", "iterations")),
        "qif.kernel_us": _mean(secs("qif.kernel"), 1e6),
        "qif.project_us": _mean(secs("qif.project"), 1e6),
        "qif.kernel_MB": _mean((8.0 * s["elements"] / 1e6 for s in named.get("qif.kernel", []))),
        "qif.kernel_GFLOPs": _ratio(kernel_flops / 1e9, total("qif.kernel")),
        "dp.terms": _mean(s["count"] for s in named.get("dp.terms", [])),
        "dp.terms_ms": _mean(secs("dp.terms"), 1e3),
        "dp.solve_ms": _mean(secs("dp.solve"), 1e3),
        "dp.rounds": _mean(s["rounds"] for s in named.get("dp.solve", [])),
        "dp.lp_ms": _mean(secs("dp.lp"), 1e3),
        "dp.lp_share": _ratio(lp_total, hidden_total),
        "dp.visible_ms": _mean(secs("dp.visible"), 1e3),
        "measures.dp_level_us": _mean(secs("measures.dp_level"), 1e6),
        "algebra.hidden_choice_us": _mean(secs("algebra.hidden_choice"), 1e6),
        "scenarios.build_ms": _mean(secs("scenarios.build"), 1e3),
        "scenarios.crowds_channel_ms": _mean(secs("scenarios.crowds_channel"), 1e3),
        "audits.audit_ms": _mean(secs("audits.audit"), 1e3),
        "audits.hypothesis_ms": _mean(secs("audits.hypothesis"), 1e3),
        "audits.solve_share": _ratio(total("audits.solve"), total("audits.audit")),
    }


def layer_metrics(spans: list[dict], op_latency: dict[str, float], set_walls) -> dict:
    """Per-module metrics of a traced run.

    Each metric is measured on the workload's own ops.  Where they never
    reach the spans it needs (``qif.*`` on ``dp-solve``, say), it is
    measured on the probe ops instead, and 0 only if those have none either.
    """
    own = self_times(spans)
    ours = [not str(s["op"]).startswith(PROBE) for s in spans]
    measured = module_metrics([s for s, o in zip(spans, ours) if o])
    probed = module_metrics([s for s, o in zip(spans, ours) if not o])
    out = {k: (v if v is not None else probed[k] or 0.0) for k, v in measured.items()}

    module_calls: dict[str, float] = {}
    for s, t, o in zip(spans, own, ours):
        if o and s["name"].startswith(MODULES) and not s.get("replay"):
            module_calls[s["op"]] = module_calls.get(s["op"], 0.0) + t
    overhead = [op_latency[op] - module_calls.get(op, 0.0) for op in op_latency]
    bytes_out = sum(s["bytes"] for s, o in zip(spans, ours) if o and s["name"] == "jsonio.dump")
    return {
        "cli.overhead_ms": _mean(overhead, 1e3) or 0.0,
        **out,
        "jsonio.bytes_out": _ratio(bytes_out, len(op_latency)) or 0.0,
        "trace.overhead_s": _mean((t - u for u, t in set_walls if t is not None)) or 0.0,
    }


# -- main -------------------------------------------------------------------------

def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy build, when it exposes one."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=list(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None, help="JSON Lines file for the traced spans")
    args = p.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    tr = Tracer()
    stats = {"solves": 0, "uncertified": 0, "value_excess": [], "hidden_lag": []}
    set_latencies, set_slowness, set_walls, failures = [], [], [], []
    op_latency: dict[str, float] = {}
    attempted = 0
    spent: list[float] = []
    index = 0
    while more_sets(spent, args.seconds):
        ops = workloads.make_ops(args.workload, args.seed, index, root, args.workdir)
        lat, outs, slow = timed_set(ops)
        wall = sum(lat)
        measured = wall
        traced_wall = None
        if args.trace:
            t0 = time.perf_counter()
            for k, op in enumerate(ops):
                if trace_op(tr, f"{index}:{op.name}", op, args.seed):
                    op_latency[tr.op] = lat[k]
            traced_wall = sum(s["end"] - s["start"] for s in tr.spans
                              if s["name"] == "op" and s["op"].startswith(f"{index}:"))
            measured += time.perf_counter() - t0
        spent.append(measured)
        set_walls.append((wall, traced_wall))
        set_latencies.append(lat)
        set_slowness.append(slow)
        for op, res in zip(ops, outs):
            attempted += 1
            fails = check_op(op, res, stats)
            if fails:
                failures.append(f"set {index} {op.name}: {'; '.join(fails)}")
        index += 1

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "sets": index,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "set_walls_s": [w for w, _ in set_walls],
        **latency_summary(set_latencies, set_slowness),
        "failed_frac": len(failures) / attempted,
        "uncertified_frac": stats["uncertified"] / stats["solves"] if stats["solves"] else 0.0,
        "value_excess.max": max(stats["value_excess"]) if stats["value_excess"] else None,
        "dp_hidden_lag.max": max(stats["hidden_lag"]) if stats["hidden_lag"] else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        for op in workloads.probe_ops(args.seed, args.workdir):
            if not trace_op(tr, PROBE + op.name, op, args.seed):
                raise RuntimeError(f"probe op {op.name} failed")
        result["layers"] = layer_metrics(tr.spans, op_latency, set_walls)
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(result))
    return 0


def trace_op(tr: Tracer, op_id: str, op: workloads.Op, seed: int) -> bool:
    """Traced pass and replays of one op; False if the traced pass raised."""
    tr.op = op_id
    try:
        with tr.span("op"):
            found = traced_op(tr, op)
    except Exception:  # counted as failed by the untraced pass's checks
        return False
    _annotate(tr, found)
    replay_op(tr, op, found, seed)
    return True


def _annotate(tr: Tracer, found: dict) -> None:
    """Copy solver counts onto their spans of the op just traced."""
    for s in reversed(tr.spans):
        if s["op"] != tr.op:
            break
        if s["name"] == "qif.solve":
            s["iterations"] = found["qif"].iterations
        elif s["name"] == "dp.solve":
            s["rounds"] = found["hidden"].iterations


if __name__ == "__main__":
    sys.exit(main())
