"""Follow-the-perturbed-leader over a multi-instance GKP oracle.

One uniform perturbation vector a in [0, eta]^N is drawn before round 1.
Because the distinguisher rounds pay a_j * P exactly to the sets holding
item j, the perturbation a . Gamma_x is realized by handing the oracle N
extra rounds whose profit vectors are scaled by a_j — the oracle never
sees a perturbation, only a slightly longer instance list. Round t plays
a maximizer of the rounds before it plus the perturbation and is paid
the true round t.

The oracle contract is a callable (static, rounds) -> (item set, value),
exactly / additively eps-optimal or multiplicatively (1-eps')-optimal
with nonnegative payoffs; the config's eps schedule declares which.
resolve_run fixes a run's eps (run_eps: the schedule's, else T^(-1/2))
and eta (default_eta when unset) in one place, for the engine and for
callers that need them first, such as the harness's FPTAS error.

The adversary is oblivious, so no round's leader depends on what was
played. The engine reads the stream as one GkpRounds block and runs in
two stages: the leaders (with ``oracle=None`` every round's exact leader
from one gkp.fold_sweep, which also gives every prefix's hindsight
benchmark; otherwise one oracle call per round), then one scoring pass,
a gathered row sum of the block per distinct played set, keyed on its
int bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt

import numpy as np

from .gkp import MAX_BRUTE_N, distinguisher_set, fold_sweep
from .instances import GkpRounds, GkpStatic, checked_vector, stack_rounds
from .rng import SeededRng
from .traces import RegretTrace, checked_int, checked_mask, checked_real, mask_members, running_sums

__all__ = [
    "GftplConfig",
    "PerturbationVector",
    "draw_perturbation",
    "default_eta",
    "epsilon_prime",
    "gftpl_run",
    "resolve_run",
    "run_eps",
    "theorem3_bound",
]


@dataclass(frozen=True)
class GftplConfig:
    """Engine parameters.

    ``N`` is an integer >= 1 (traces.checked_int). Each real field is
    checked by traces.checked_real and stored as a float: ``eta`` in
    [0, inf), ``kappa`` in [1, inf), ``delta`` in (0, inf), and
    ``G_gamma``, ``G_f`` and ``F_M`` in [0, inf).
    ``eta=None`` means "derive at run time" via default_eta from the
    horizon and the eps schedule. ``eps_schedule`` is ("additive", eps)
    or ("fptas", eps) with eps in [0, inf), or None meaning the T^(-1/2)
    default; under "fptas" the relative error fed to the oracle should be
    epsilon_prime(eps, T, cfg).
    """

    N: int
    eta: float | None = None
    kappa: float = 2.0
    delta: float = 1.0
    G_gamma: float = 1.0
    G_f: float = 1.0
    F_M: float = 1.0
    eps_schedule: tuple = ("additive", None)

    def __post_init__(self):
        if checked_int(self.N, "N") < 1:
            raise ValueError(f"N must be >= 1, got {self.N!r}")
        mode, eps = self.eps_schedule
        if self.eta is not None:
            object.__setattr__(self, "eta", checked_real(self.eta, "eta", 0.0))
        object.__setattr__(self, "kappa", checked_real(self.kappa, "kappa", 1.0))
        object.__setattr__(self, "delta", checked_real(self.delta, "delta", 0.0, open_low=True))
        for name in ("G_gamma", "G_f", "F_M"):
            object.__setattr__(self, name, checked_real(getattr(self, name), name, 0.0))
        if mode not in ("additive", "fptas"):
            raise ValueError(f"eps_schedule mode must be 'additive' or 'fptas', got {mode!r}")
        if eps is not None:
            object.__setattr__(self, "eps_schedule", (mode, checked_real(eps, "eps", 0.0)))


@dataclass(frozen=True, eq=False)
class PerturbationVector:
    """The single random draw a in [0, eta]^N of a run, stored read-only
    in an array of its own (instances.checked_vector); eta is in [0, inf)."""

    a: np.ndarray
    eta: float

    def __post_init__(self):
        eta = checked_real(self.eta, "eta", 0.0)
        object.__setattr__(self, "a", checked_vector(self.a, "perturbation a", eta))
        object.__setattr__(self, "eta", eta)


def draw_perturbation(cfg: GftplConfig, rng: SeededRng) -> PerturbationVector:
    """Draw the run's perturbation: N i.i.d. uniforms on [0, eta]."""
    if cfg.eta is None:
        raise ValueError("eta is unresolved; compute default_eta for the horizon first")
    return PerturbationVector(rng.uniform_array(0.0, cfg.eta, cfg.N), cfg.eta)


def default_eta(cfg: GftplConfig, eps: float, T: int) -> float:
    """Perturbation range equating the stability and perturbation terms:
    sqrt(kappa * G_f * (G_f + 2*eps) * T / (delta * G_gamma)), for eps
    in [0, inf) and G_gamma in (0, inf)."""
    eps = checked_real(eps, "eps", 0.0)
    checked_real(cfg.G_gamma, "G_gamma of a default eta", 0.0, open_low=True)
    return sqrt(cfg.kappa * cfg.G_f * (cfg.G_f + 2.0 * eps) * T / (cfg.delta * cfg.G_gamma))


def epsilon_prime(eps: float, T: int, cfg: GftplConfig) -> float:
    """Relative oracle error eps / (T*F_M + N*eta*Gamma_M) that keeps the
    multiplicative contract within additive eps of the exact leader.

    Gamma_M, the largest translation-matrix entry, equals G_gamma here
    (distinguisher payoffs live in {0, P}). eps is in [0, inf).
    """
    eps = checked_real(eps, "eps", 0.0)
    if cfg.eta is None:
        raise ValueError("eta is unresolved; compute default_eta for the horizon first")
    denom = T * cfg.F_M + cfg.N * cfg.eta * cfg.G_gamma
    if denom <= 0:
        raise ValueError("epsilon_prime denominator must be positive")
    return eps / denom


def theorem3_bound(cfg: GftplConfig, eps: float, T: int) -> float:
    """Regret guarantee N*sqrt(kappa*G_f*G_gamma*(G_f+2*eps)/delta*T) + eps*T,
    for eps in [0, inf) and an integer T >= 0."""
    eps = checked_real(eps, "eps", 0.0)
    if checked_int(T, "T") < 0:
        raise ValueError(f"T must be nonnegative, got {T!r}")
    return _theorem3(cfg, eps, T)


def _theorem3(cfg: GftplConfig, eps: float, T: int) -> float:
    """theorem3_bound's formula on checked parameters."""
    inner = cfg.kappa * cfg.G_f * cfg.G_gamma * (cfg.G_f + 2.0 * eps) / cfg.delta * T
    return cfg.N * sqrt(inner) + eps * T


def _theorem3_column(cfg: GftplConfig, eps: float, T: int) -> list[float]:
    """[_theorem3(cfg, eps, t) for t in 1..T] bit for bit, as one numpy
    expression in the scalar formula's operation order (and, as Python
    floats do, silent when a product overflows to inf)."""
    t = np.arange(1, T + 1)
    c = cfg.kappa * cfg.G_f * cfg.G_gamma * (cfg.G_f + 2.0 * eps) / cfg.delta
    with np.errstate(over="ignore", invalid="ignore"):
        return (cfg.N * np.sqrt(c * t) + eps * t).tolist()


def run_eps(cfg: GftplConfig, T: int) -> float:
    """The eps a run of horizon T uses: the schedule's eps, or T^(-1/2)
    when that is None (0 for an empty horizon)."""
    eps = cfg.eps_schedule[1]
    if eps is None:
        return T ** -0.5 if T > 0 else 0.0
    return eps


def resolve_run(cfg: GftplConfig, T: int) -> tuple[GftplConfig, float]:
    """cfg with eta filled in (default_eta when it is None), and run_eps."""
    eps = run_eps(cfg, T)
    if cfg.eta is None:
        cfg = replace(cfg, eta=default_eta(cfg, eps, T))
    return cfg, eps


def _payoffs(static: GkpStatic, rounds: GkpRounds, masks, mode: str) -> list[float]:
    """gkp_profit of the set masks[k] in round k+1 for every k, bit for bit,
    as one gathered row sum per distinct mask over its members, ascending.
    Under fptas the earliest round with a negative payoff is refused."""
    rows_of: dict[int, list[int]] = {}
    for k, mask in enumerate(masks):
        rows_of.setdefault(mask, []).append(k)
    payoffs = np.zeros(len(masks))
    for mask, rows in rows_of.items():
        members = mask_members(mask)
        if members:
            excess = np.maximum(0.0, static.w[members].sum() - rounds.B[rows])
            payoffs[rows] = rounds.rows[np.ix_(rows, members)].sum(axis=1) - static.c * excess
    if mode == "fptas" and (payoffs < 0).any():
        t = int(np.argmax(payoffs < 0)) + 1
        raise ValueError(
            f"round {t}: negative payoff {float(payoffs[t - 1])} under the fptas schedule "
            "(the multiplicative contract needs nonnegative payoffs)"
        )
    return payoffs.tolist()


def gftpl_run(
    static: GkpStatic,
    rounds_stream,
    oracle,
    cfg: GftplConfig,
    rng: SeededRng,
) -> RegretTrace:
    """Run the perturbed leader for len(rounds_stream) rounds.

    Round t plays the leader of y^1..y^{t-1} plus the N perturbation-scaled
    distinguisher rounds and is paid y^t. The run takes every round's
    leader first, then scores the stream (a GkpRounds or a list of
    GkpRound) in one pass (_payoffs).
    The trace records, per round, the payoff, the oracle's claimed
    perturbed objective, the best static payoff on rounds 1..t, the
    running regret against it, and the running theorem bound.

    ``oracle=None`` is the engine's exact leader: the fold of the history
    plus the perturbation deltas, added in slot order, with brute_oracle's
    tie rule, for all rounds at once by fold_sweep (the floats
    CachingBruteOracle computes round by round); it needs n <= MAX_BRUTE_N.
    Any other oracle is called once per round with a list: the caller's
    first t-1 rounds (its own objects when rounds_stream is a list), then
    the perturbation rounds, built once per run. Each set it returns
    is checked and turned into an int mask as it arrives (checked_mask). If
    the oracle fails or returns a bad set at round t, a fault of an
    earlier round is reported first. The hindsight benchmark comes from
    the same sweep whenever n <= MAX_BRUTE_N. The trace holds the played
    sets as masks.
    """
    n = static.n
    if cfg.N != n:
        raise ValueError("distinguisher-backed runs need N equal to the item count")
    rounds = stack_rounds(n, rounds_stream)
    T = len(rounds)
    if oracle is None and n > MAX_BRUTE_N:
        raise ValueError(
            f"oracle=None is the exact leader over all 2^n sets: n={n} exceeds "
            f"the enumeration guard MAX_BRUTE_N={MAX_BRUTE_N}"
        )
    mode, _ = cfg.eps_schedule
    cfg, eps = resolve_run(cfg, T)
    pert = draw_perturbation(cfg, rng)

    base = distinguisher_set(static, P=cfg.delta)
    pert_rounds = GkpRounds(n, pert.a[:, None] * base.rows, base.B)

    # the leaders never depend on the plays and the bests never depend on
    # the oracle, so both come from one sweep before round 1
    leaders = bests = None
    if n <= MAX_BRUTE_N:
        leaders, bests = fold_sweep(static, rounds, pert_rounds if oracle is None else None)
    if oracle is not None:
        history = rounds_stream if isinstance(rounds_stream, list) else list(rounds)
        tail, leaders = list(pert_rounds), []
        for t in range(1, T + 1):
            # on a fault at round t, _payoffs of the rounds before raises theirs first
            try:
                played, perturbed_obj = oracle(static, history[: t - 1] + tail)
            except Exception as exc:
                _payoffs(static, rounds, [A for A, _ in leaders], mode)
                raise RuntimeError(f"oracle failed at round {t}: {exc}") from exc
            try:
                leaders.append((checked_mask(played, n, f"round {t}: an oracle set"), perturbed_obj))
            except ValueError:
                _payoffs(static, rounds, [A for A, _ in leaders], mode)
                raise

    masks = [A for A, _ in leaders]
    payoffs = _payoffs(static, rounds, masks, mode)
    benchmark = None if bests is None else (bests[-1] if T else 0.0)
    if bests is None:  # n above the enumeration guard: no benchmark columns
        bests = [float("nan")] * T
    regrets = [b - cum for b, cum in zip(bests, running_sums(payoffs))]
    return RegretTrace(
        algorithm="gftpl_gkp",
        masks=masks,
        values=payoffs,
        extras={
            "perturbed_obj": [float(v) for _, v in leaders],
            "best_static_cum": bests,
            "regret": regrets,
            "theorem3_bound": _theorem3_column(cfg, eps, T),
        },
        benchmark=benchmark,
        meta={
            "n": n,
            "T": T,
            "seed": rng.seed,
            "eps_mode": mode,
            "eps": eps,
            "eta": cfg.eta,
            "perturbation": tuple(float(x) for x in pert.a),
        },
    )
