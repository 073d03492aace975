"""DP games: hidden vs visible mechanism choice.

The utility here is the differential-privacy level of the channel the
attacker effectively faces.  Mixing mechanisms behind the attacker's back
is quasi-convex (the mix can be much better than the average level, and
never worse than the worst); announcing the choice is quasi-max (the mix
is exactly as bad as its worst member).
"""

import numpy as np

from leakgames import (
    build_dp_example,
    dp_level,
    dp_utility_hidden,
    dp_utility_visible,
    hidden_choice,
    solve_dp_hidden,
    solve_dp_visible,
)

np.set_printoptions(precision=4, suppress=True)

game = build_dp_example()
adjacency = game.measure.adjacency

print("Pure-profile DP levels (nats):")
for d in game.defender_actions:
    row = [dp_level(game.channel(d, a), adjacency) for a in game.attacker_actions]
    print(f"  d={d}: {np.round(row, 4)}")

print("\nMixing is not averaging: at the even mix against a=0,")
mixed = hidden_choice([0.5, 0.5], game.channels_for_attack("0"))
levels = [dp_level(c, adjacency) for c in game.channels_for_attack("0")]
print(f"  level(mix)      = {dp_level(mixed, adjacency):.4f}")
print(f"  mean of levels  = {np.mean(levels):.4f}")
print(f"  max of levels   = {np.max(levels):.4f}   (quasi-convex cap)")

print("\nSweep of the worst-case hidden level over the defender mixture:")
for t in (0.0, 0.14, 0.5, 0.86, 1.0):
    value = dp_utility_hidden(game, [t, 1 - t], [0.5, 0.5])
    print(f"  delta = ({t:.2f}, {1-t:.2f}):  {value:.4f}")

hidden = solve_dp_hidden(game)
print(f"\nHidden-choice equilibrium (normalized Dinkelbach, {hidden.iterations} rounds):")
print(f"  delta* = {np.round(hidden.defender_strategy.weights, 4)}")
print(f"  value  = {hidden.value:.4f} nats")
print(f"  certificate gap (nats) = {hidden.certificate_gap:.2e}")

visible = solve_dp_visible(game)
print(f"\nVisible-choice equilibrium: pure action d* = "
      f"{visible.diagnostics['defender_action']} at {visible.value:.4f} nats")
print(f"Full-support visible utility: "
      f"{dp_utility_visible(game, [0.5, 0.5], [0.5, 0.5]):.4f} nats")
print("\nHiding the choice buys", f"{visible.value - hidden.value:.4f}",
      "nats of privacy at equilibrium.")
