"""Near-zero DP sweep: hidden-choice solves of the dusted sparse games.

Solves each of seeds 0-599 of ``tests/test_dp_solver._sparse_dp_game(seed,
dust=True)`` that has at least two defender actions, with ``max_iter``
200, and prints how many end certified or uncertified or raise
``NumericalFailure`` or ``Infeasible``, every game whose hidden value reads
above its visible value (hidden choice is never worse, so there should be
none) and the wall time. ``--root`` names the checkout whose ``src`` and
``tests`` are imported.

    python3 tools/dp_sweep.py
    python3 tools/dp_sweep.py --root ../parent
"""

import argparse
import os
import sys
import time
from collections import Counter

SEEDS = range(600)
MAX_ITER = 200


def sweep(root: str) -> tuple[Counter, list]:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    from leakgames.core import Infeasible, NumericalFailure
    from leakgames.dp import solve_dp_hidden, solve_dp_visible
    from test_dp_solver import _sparse_dp_game

    counts, above = Counter(), []
    for seed in SEEDS:
        game = _sparse_dp_game(seed, dust=True)
        if len(game.defender_actions) < 2:
            continue
        try:
            hidden = solve_dp_hidden(game, max_iter=MAX_ITER)
        except (NumericalFailure, Infeasible) as exc:
            counts[type(exc).__name__] += 1
            continue
        counts["certified" if hidden.certified else "uncertified"] += 1
        visible = solve_dp_visible(game).value
        if hidden.value > visible:
            above.append((seed, hidden.value - visible))
    return counts, above


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = p.parse_args(argv)
    start = time.perf_counter()
    counts, above = sweep(os.path.abspath(args.root))
    print(", ".join(f"{counts[k]} {k}" for k in
                    ("certified", "uncertified", "NumericalFailure", "Infeasible")))
    print(f"{len(above)} games with hidden above visible")
    for seed, excess in above:
        print(f"  seed {seed}: +{excess:.3g} nats")
    print(f"wall {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
