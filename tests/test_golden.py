"""Byte-stable stdout: the shipped games' build, solve and audit records, pinned.

``tests/data/golden_stdout.json`` holds the exit code and the sha256 of
standard output of each step.  A change that moves these bytes on purpose
rewrites the file with ``PYTHONPATH=src python tests/test_golden.py`` and
says why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from leakgames import cli
from leakgames.scenarios import manet_config

GOLDEN = Path(__file__).parent / "data" / "golden_stdout.json"
DP_GAMES = ("dp-example", "ldp")


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def golden_outputs(tmp_path: Path) -> dict:
    """[exit code, stdout sha256] of every step, keyed by the step with the game's name."""
    config = manet_config()
    config_path = tmp_path / "crowds.json"
    config_path.write_text(json.dumps({
        "nodes": list(config.nodes),
        "edges": [list(e) for e in config.edges],
        "forward_prob": config.forward_prob,
        "attacker_sites": {k: list(v) for k, v in config.attacker_sites.items()},
        "defender_sites": {k: list(v) for k, v in config.defender_sites.items()},
    }))
    builds = {name: [] for name in ("two-millionaires", "binary-sum") + DP_GAMES}
    builds["crowds"] = [str(config_path)]
    record = {}
    for name, extra in builds.items():
        game = str(tmp_path / f"{name}.json")
        steps = [["build", name, *extra]]
        if name in DP_GAMES:
            steps += [["solve", "dp", game], ["solve", "dp", game, "--mode", "visible"]]
        else:
            steps += [["solve", "qif", game]]
        steps += [["audit", game]]
        for argv in steps:
            code, text = _run(argv)
            if argv[0] == "build":
                Path(game).write_text(text)
            key = " ".join(name if a in (game, str(config_path)) else a for a in argv)
            record[key] = [code, hashlib.sha256(text.encode("utf-8")).hexdigest()]
    return record


def test_stdout_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden_outputs(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(golden_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n")
