"""Follow-the-perturbed-leader over a multi-instance GKP oracle.

One uniform perturbation vector a in [0, eta]^N is drawn before round 1.
Because the distinguisher rounds pay a_j * P exactly to the sets holding
item j, the perturbation a . Gamma_x is realized by handing the oracle N
extra rounds whose profit vectors are scaled by a_j — the oracle never
sees a perturbation, only a slightly longer instance list. Each round the
engine asks the oracle for a maximizer of history-plus-perturbation,
plays it, then reveals the true round.

The oracle contract is a callable (static, rounds) -> (item set, value),
exactly / additively eps-optimal or multiplicatively (1-eps')-optimal
with nonnegative payoffs; the config's eps schedule declares which.
resolve_run fixes a run's eps (run_eps: the schedule's, else T^(-1/2))
and eta (default_eta when unset) in one place, for the engine and for
callers that need them first, such as the harness's FPTAS error.

Every oracle depends on the history only through its per-set summed
profits P[mask] and excess K[mask]. The adversary is oblivious and the
whole stream is known before round 1, so the engine computes both things
it reads off those aggregates in one gkp.fold_sweep before the play
loop: the hindsight benchmark of every prefix and, with ``oracle=None``,
every round's exact leader — the fold of the revealed prefix plus the
perturbation rounds' per-set deltas. That leader is brute_oracle's set
under its tie rule, so no round list is built or handed over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, sqrt

import numpy as np

from .gkp import MAX_BRUTE_N, distinguisher_set, fold_sweep, gkp_profit
from .instances import GkpRound, GkpStatic, check_round_length
from .rng import SeededRng
from .traces import RegretTrace

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

    ``eta=None`` means "derive at run time" via default_eta from the
    horizon and the eps schedule. ``eps_schedule`` is ("additive", eps)
    or ("fptas", eps) with eps=None meaning the T^(-1/2) default; under
    "fptas" the relative error fed to the oracle should be
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
        mode, eps = self.eps_schedule
        for name, value in (
            ("eta", self.eta), ("kappa", self.kappa), ("delta", self.delta),
            ("G_gamma", self.G_gamma), ("G_f", self.G_f), ("F_M", self.F_M), ("eps", eps),
        ):
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N!r}")
        if self.eta is not None and self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta!r}")
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa!r}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if min(self.G_gamma, self.G_f, self.F_M) < 0:
            raise ValueError(
                "G_gamma, G_f, F_M must be nonnegative, got "
                f"{self.G_gamma!r}, {self.G_f!r}, {self.F_M!r}"
            )
        if mode not in ("additive", "fptas"):
            raise ValueError(f"eps_schedule mode must be 'additive' or 'fptas', got {mode!r}")
        if eps is not None and eps < 0:
            raise ValueError(f"eps must be nonnegative, got {eps!r}")


@dataclass(frozen=True, eq=False)
class PerturbationVector:
    """The single random draw a in [0, eta]^N of a run."""

    a: np.ndarray
    eta: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 1:
            raise ValueError("a must be a vector")
        if a.size and (a.min() < 0 or a.max() > self.eta):
            raise ValueError("components must lie in [0, eta]")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)


def draw_perturbation(cfg: GftplConfig, rng: SeededRng) -> PerturbationVector:
    """Draw the run's perturbation: N i.i.d. uniforms on [0, eta]."""
    if cfg.eta is None:
        raise ValueError("eta is unresolved; compute default_eta for the horizon first")
    return PerturbationVector(rng.uniform_array(0.0, cfg.eta, cfg.N), cfg.eta)


def default_eta(cfg: GftplConfig, eps: float, T: int) -> float:
    """Perturbation range equating the stability and perturbation terms:
    sqrt(kappa * G_f * (G_f + 2*eps) * T / (delta * G_gamma))."""
    if cfg.G_gamma <= 0:
        raise ValueError("default eta needs G_gamma > 0")
    return sqrt(cfg.kappa * cfg.G_f * (cfg.G_f + 2.0 * eps) * T / (cfg.delta * cfg.G_gamma))


def epsilon_prime(eps: float, T: int, cfg: GftplConfig) -> float:
    """Relative oracle error eps / (T*F_M + N*eta*Gamma_M) that keeps the
    multiplicative contract within additive eps of the exact leader.

    Gamma_M, the largest translation-matrix entry, equals G_gamma here
    (distinguisher payoffs live in {0, P}).
    """
    if cfg.eta is None:
        raise ValueError("eta is unresolved; compute default_eta for the horizon first")
    denom = T * cfg.F_M + cfg.N * cfg.eta * cfg.G_gamma
    if denom <= 0:
        raise ValueError("epsilon_prime denominator must be positive")
    return eps / denom


def theorem3_bound(cfg: GftplConfig, eps: float, T: int) -> float:
    """Regret guarantee N*sqrt(kappa*G_f*G_gamma*(G_f+2*eps)/delta*T) + eps*T."""
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T!r}")
    inner = cfg.kappa * cfg.G_f * cfg.G_gamma * (cfg.G_f + 2.0 * eps) / cfg.delta * T
    return cfg.N * sqrt(inner) + eps * T


def run_eps(cfg: GftplConfig, T: int) -> float:
    """The eps a run of horizon T uses: the schedule's eps, or T^(-1/2)
    when that is None (0 for an empty horizon)."""
    eps = cfg.eps_schedule[1]
    if eps is None:
        return T ** -0.5 if T > 0 else 0.0
    return float(eps)


def resolve_run(cfg: GftplConfig, T: int) -> tuple[GftplConfig, float]:
    """cfg with eta filled in (default_eta when it is None), and run_eps."""
    eps = run_eps(cfg, T)
    if cfg.eta is None:
        cfg = replace(cfg, eta=default_eta(cfg, eps, T))
    return cfg, eps


def gftpl_run(
    static: GkpStatic,
    rounds_stream,
    oracle,
    cfg: GftplConfig,
    rng: SeededRng,
) -> RegretTrace:
    """Run the perturbed leader for len(rounds_stream) rounds.

    Round t hands the oracle y^1..y^{t-1} plus the N perturbation-scaled
    distinguisher rounds, plays the oracle's set, then observes y^t. The
    trace records, per round, the observed payoff, the oracle's claimed
    perturbed objective, the best static payoff on the revealed prefix,
    the running regret against it, and the running theorem bound.

    ``oracle=None`` is the engine's exact leader: the fold of the history
    plus the perturbation deltas, added in slot order, with brute_oracle's
    tie rule, for all rounds at once by fold_sweep. It computes the floats
    CachingBruteOracle computes round by round, so it picks the same sets
    with the same values, without building a round list per round; it
    needs n <= MAX_BRUTE_N. Any other oracle is called as
    oracle(static, history + perturbation rounds). The hindsight benchmark
    comes from the same sweep whenever n <= MAX_BRUTE_N.
    """
    rounds_stream = list(rounds_stream)
    T = len(rounds_stream)
    n = static.n
    if cfg.N != n:
        raise ValueError("distinguisher-backed runs need N equal to the item count")
    for k, r in enumerate(rounds_stream):
        check_round_length(n, r, k)
    if oracle is None and n > MAX_BRUTE_N:
        raise ValueError(
            f"oracle=None is the exact leader over all 2^n sets: n={n} exceeds "
            f"the enumeration guard MAX_BRUTE_N={MAX_BRUTE_N}"
        )
    mode, _ = cfg.eps_schedule
    cfg, eps = resolve_run(cfg, T)
    pert = draw_perturbation(cfg, rng)

    base = distinguisher_set(static, P=cfg.delta)
    pert_rounds = [GkpRound(pert.a[j] * base[j].p, base[j].B) for j in range(cfg.N)]

    # the leaders never depend on the plays and the bests never depend on
    # the oracle, so both come from one sweep before round 1
    leaders = bests = None
    if n <= MAX_BRUTE_N:
        leaders, bests = fold_sweep(static, rounds_stream, pert_rounds if oracle is None else None)

    played_sets, payoffs, perturbed_objs, regrets = [], [], [], []
    history: list[GkpRound] = []
    cum = 0.0
    for t, y in enumerate(rounds_stream, 1):
        if oracle is None:
            played, perturbed_obj = leaders[t - 1]
        else:
            try:
                played, perturbed_obj = oracle(static, history + pert_rounds)
            except Exception as exc:
                raise RuntimeError(f"oracle failed at round {t}: {exc}") from exc
            history.append(y)
        payoff = gkp_profit(played, static, y)
        if mode == "fptas" and payoff < 0:
            raise ValueError(
                f"round {t}: negative payoff {payoff} under the fptas schedule "
                "(the multiplicative contract needs nonnegative payoffs)"
            )
        cum += payoff
        played_sets.append(frozenset(played))
        payoffs.append(payoff)
        perturbed_objs.append(float(perturbed_obj))
        if bests is not None:
            regrets.append(bests[t - 1] - cum)

    benchmark = None if bests is None else (bests[-1] if T else 0.0)
    if bests is None:  # n above the enumeration guard: no benchmark columns
        bests = regrets = [float("nan")] * T
    return RegretTrace(
        algorithm="gftpl_gkp",
        actions=played_sets,
        values=payoffs,
        extras={
            "perturbed_obj": perturbed_objs,
            "best_static_cum": bests,
            "regret": regrets,
            "theorem3_bound": [theorem3_bound(cfg, eps, t) for t in range(1, T + 1)],
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
