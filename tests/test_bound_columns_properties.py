"""Property check of the per-round bound columns.

gftpl_run's ``theorem3_bound`` and ogd_run's ``bound_additive`` columns
are one numpy expression each; on random configs and horizons (T = 0 and
T = 1 included) every entry must be the scalar formula's float at its
round, bit for bit.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from regretlab.gftpl import GftplConfig, _theorem3, _theorem3_column, gftpl_run, theorem3_bound  # noqa: E402
from regretlab.instances import GkpStatic, Graph, WeightSequence, random_gkp_rounds  # noqa: E402
from regretlab.ogd import OgdConfig, _theorem2, _theorem2_column, ogd_run, theorem2_bound  # noqa: E402
from regretlab.rng import SeededRng  # noqa: E402

REALS = st.floats(0.0, 1e6) | st.sampled_from([0.0, 1.0, 2.0, 0.1, 1e-300, 1e300])
HORIZONS = st.integers(0, 1) | st.integers(2, 200)


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        GftplConfig,
        N=st.just(2),
        eta=st.floats(0.0, 2.0),
        kappa=REALS.map(lambda x: 1.0 + x),
        delta=REALS.filter(lambda x: x > 0.0),
        G_gamma=REALS,
        G_f=REALS,
        eps_schedule=st.tuples(st.just("additive"), st.none() | REALS),
    ),
    HORIZONS,
    st.integers(0, 2**32 - 1),
)
@example(GftplConfig(N=2), 0, 1)
@example(GftplConfig(N=2), 1, 1)
@example(GftplConfig(N=2, eta=0.5, kappa=1e300, G_f=1e300, G_gamma=0.0), 3, 1)  # inf * 0
@example(GftplConfig(N=2, eta=0.5, G_f=1e160), 3, 1)  # overflows to inf
def test_theorem3_column_is_the_scalar_bound_of_every_round(cfg, T, seed):
    static = GkpStatic(2, [0.5, 1.0], 1.0)
    trace = gftpl_run(static, random_gkp_rounds(static, T, SeededRng(seed)), None, cfg, SeededRng(seed))
    eps = trace.meta["eps"]
    column = trace.extras["theorem3_bound"]
    assert len(column) == T
    assert bits(column) == bits(_theorem3(cfg, eps, t) for t in range(1, T + 1))
    assert bits(column) == bits(theorem3_bound(cfg, eps, t) for t in range(1, T + 1))
    long = _theorem3_column(cfg, eps, 4096)
    assert bits(long) == bits(_theorem3(cfg, eps, t) for t in range(1, 4097))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.integers(1, 6),
    HORIZONS,
    st.integers(0, 2**32 - 1),
    REALS.filter(lambda x: x > 0.0),
)
@example(1.0, 3, 0, 1, 1.0)
@example(1.0, 3, 1, 1, 1.0)
@example(1.0, 6, 3, 1, 1e308)  # the column overflows to inf
def test_theorem2_column_is_the_scalar_bound_of_every_round(W, n, T, seed, W_long):
    g = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
    rows = SeededRng(seed).uniform_array(0.0, W, T * n).reshape(T, n)
    trace = ogd_run(g, WeightSequence(n, rows), OgdConfig(W_bound=W))
    column = trace.extras["bound_additive"]
    assert len(column) == T
    assert bits(column) == bits(_theorem2(W, n, t) for t in range(1, T + 1))
    assert bits(column) == bits(theorem2_bound(W, n, t) for t in range(1, T + 1))
    long = _theorem2_column(W_long, n, 4096)
    assert bits(long) == bits(_theorem2(W_long, n, t) for t in range(1, 4097))
