"""Projected gradient descent on fractional covers, rounded at 1/2.

The iterate lives in the vertex-cover polytope; each round it pays the
heaviest vertex of the rounded cover, then steps against the maximizing
coordinate and projects back. The guarantee under test: cumulative
integral cost <= 2*OPT + 3*W*sqrt(n*T), with OPT the exact hindsight
optimum — and the 2x comes from rounding alone, so it holds per round
against the fractional cost as well.
"""

from regretlab.instances import gen_random_graph, gen_uniform_weights
from regretlab.ogd import OgdConfig, ogd_run, theorem2_bound
from regretlab.rng import SeededRng

n = 10
print(f"ER graph n={n}, uniform [0,1] weights, scaled steps")
print(f"{'T':>6} {'cum':>9} {'2*OPT':>9} {'+bound':>9} {'bound/T':>8}")
for T in (125, 500, 2000, 8000):
    rng = SeededRng(23)
    g = gen_random_graph(n, 0.4, rng)
    seq = gen_uniform_weights(n, T, 1.0, rng)
    tr = ogd_run(g, seq, OgdConfig(step_mode="scaled"))
    bound = theorem2_bound(1.0, n, T)
    assert tr.cumulative <= 2.0 * tr.benchmark + bound
    # the additive term is o(T): per round it melts away like 3*sqrt(n/T),
    # which is what makes the guarantee a vanishing-regret statement
    print(
        f"{T:>6} {tr.cumulative:>9.1f} {2 * tr.benchmark:>9.1f} "
        f"{bound:>9.1f} {bound / T:>8.3f}"
    )

# every round: the rounded cover never pays more than twice the iterate
assert all(c <= 2.0 * f for c, f in zip(tr.values, tr.extras["frac_cost"], strict=True))
print("per-round check: integral cost <= 2 * fractional cost on every round")
