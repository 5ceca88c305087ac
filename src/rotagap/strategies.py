"""Value-combination strategies: turn profits and affinities into the
objective coefficients of one cycle's assignment problem.

Five strategies are supported:

  * ``fop``  -- profit only (the rotation-unaware baseline),
  * ``foa``  -- affinity only,
  * ``os``   -- objective switch: profits while ``gamma > max AP``, affinities
    otherwise (equality falls to the affinity branch),
  * ``pc``   -- product combination ``p**alpha * a**beta`` (default 1/1);
    ``pc`` with beta=0 equals ``fop``, with alpha=0 equals ``foa``,
  * ``wpp``  -- weighted partial profits: per-task self-adaptive blend of
    max-normalized profits and affinities.

All strategies are pure functions of (config, profits, affinities,
availability) and are fixed for an entire run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .affinity import AffinityState
from .domain import spec_number

# in the order of the report tables
STRATEGY_KINDS = ("foa", "os", "pc", "wpp", "fop")


class ConfigError(ValueError):
    """Invalid strategy or experiment configuration."""


@dataclass(frozen=True)
class StrategyConfig:
    """Which strategy to run and its parameters (gamma for os; alpha/beta
    exponents for pc).  A config is checked when it is built, so every one
    that exists is valid."""

    kind: str
    gamma: float | None = None
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "os":
            if self.gamma is None:
                raise ConfigError("strategy os requires gamma")
            if not 0 < self.gamma < math.inf:
                raise ConfigError(f"gamma must be finite and > 0, got {self.gamma}")
        elif self.gamma is not None:
            raise ConfigError(f"gamma is only valid for os, not {self.kind}")
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ConfigError("alpha and beta must be finite and >= 0")

    def check_values_finite(self, max_profit: int, cycles: int,
                            tasks: int) -> None:
        """Refuse a ``pc`` config whose values can overflow float64 in a run
        of ``cycles`` cycles over ``tasks`` tasks with profits up to
        ``max_profit``.  An affinity never exceeds the cycle count, so a
        value is at most ``max_profit**alpha * cycles**beta``, and one
        cycle's objective sums at most ``tasks`` of them."""
        if self.kind != "pc":
            return
        try:
            top = float(max_profit) ** self.alpha \
                * float(cycles) ** self.beta * tasks
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ConfigError(
                f"strategy {self.spec} overflows: with profits up to "
                f"{max_profit} over {cycles} cycles its values exceed the "
                f"float range")

    @property
    def spec(self) -> str:
        """Canonical spec, e.g. ``os:10`` or ``pc``; :meth:`parse` reads it
        back to an equal config."""
        if self.kind == "os":
            return f"os:{spec_number(self.gamma)}"
        if self.kind == "pc" and (self.alpha, self.beta) != (1.0, 1.0):
            return f"pc:{spec_number(self.alpha)}:{spec_number(self.beta)}"
        return self.kind

    @property
    def label(self) -> str:
        """Report label: the spec with ``/`` separators, e.g. ``os/10``."""
        return self.spec.replace(":", "/")

    @property
    def file_label(self) -> str:
        return self.label.replace("/", "-")

    @classmethod
    def parse(cls, text: str) -> "StrategyConfig":
        """Parse CLI/config syntax: ``fop``, ``os:10``, ``pc``, ``pc:2:0.5``,
        ``wpp``."""
        parts = text.strip().lower().split(":")
        kind, args = parts[0], parts[1:]
        try:
            if kind == "os":
                if len(args) != 1:
                    raise ConfigError("os takes exactly one parameter, e.g. os:10")
                config = cls(kind="os", gamma=float(args[0]))
            elif kind == "pc" and args:
                if len(args) != 2:
                    raise ConfigError("pc takes zero or two parameters, e.g. pc:2:0.5")
                config = cls(kind="pc", alpha=float(args[0]), beta=float(args[1]))
            elif args:
                raise ConfigError(f"strategy {kind} takes no parameters")
            else:
                config = cls(kind=kind)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad strategy spec {text!r}: {exc}") from exc
        return config


def report_order(label: str) -> tuple:
    """Table order of a report label: ``STRATEGY_KINDS``, os by rising
    gamma, then the label; one that parses as no strategy comes last."""
    try:
        config = StrategyConfig.parse(label.replace("/", ":"))
    except ConfigError:
        return (len(STRATEGY_KINDS), 0.0, label)
    return (STRATEGY_KINDS.index(config.kind), config.gamma or 0.0, label)


def _available_affinity(affinities: np.ndarray,
                        mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per task: the count of ``mask``'s agents and their affinity sum."""
    return mask.sum(axis=0), np.where(mask, affinities, 0).sum(axis=0)


def max_affinity_pressure(state: AffinityState,
                          available: np.ndarray) -> float:
    """The largest affinity pressure (AP) among the tasks, each over its c
    available compatible agents (``available``, the cycle's m x n mask):
    ``AP = sum(a) / c - (c + 1) / 2``.  Under perfect rotation their
    affinities are {1, ..., c}, so AP is 0; it is negative during the first
    c cycles and positive when assignments are overdue.  Only this cycle's
    available agents count, so other tasks and agents leave a task's AP
    unchanged.  Tasks with no such agent are skipped; if none is left the
    result is 0.0."""
    counts, sums = _available_affinity(state.affinities, available)
    usable = counts > 0
    if not usable.any():
        return 0.0
    c = counts[usable].astype(np.float64)
    ap = sums[usable] / c - (c + 1.0) / 2.0
    return float(ap.max())


def pc_values(alpha: float, beta: float, profits: np.ndarray,
              affinities: np.ndarray) -> np.ndarray:
    """Product combination ``p**alpha * a**beta`` elementwise; 0**0 == 1 so
    the fop/foa special cases hold entrywise."""
    return np.power(profits.astype(np.float64), alpha) \
        * np.power(affinities.astype(np.float64), beta)


def wpp_values(profits: np.ndarray, affinities: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """Weighted partial profits.

    With c_j available compatible agents for task j, the blend weight is

        lambda_j = (c_j * (c_j + 1) / 2) / sum_i a[i, j]

    over the same agents, and the value is
    ``lambda_j * p/max_p + (1 - lambda_j) * a/max_a`` with global maxima over
    all available pairs, the one use of ``mask``; when ``max_p`` is 0 the
    profit term is 0.  ``max_a`` is at least 1, the least affinity of a
    compatible pair.  lambda is used unclamped, so early cycles (all
    affinities 1) can push entries negative; those are clamped to 0 to keep
    the solver's non-negativity contract.
    """
    if not mask.any():
        return np.zeros_like(profits, dtype=np.float64)
    max_p = int(profits[mask].max())
    max_a = int(affinities[mask].max())
    counts, sums = (x.astype(np.float64)
                    for x in _available_affinity(affinities, mask))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(sums > 0, (counts * (counts + 1) / 2.0) / sums, 0.0)
    p = profits / max_p if max_p else 0.0
    v = lam[None, :] * p + (1.0 - lam[None, :]) * (affinities / max_a)
    return np.maximum(v, 0.0)


def compute_values(config: StrategyConfig, profits: np.ndarray,
                   affinities: np.ndarray, mask: np.ndarray,
                   max_ap: float) -> np.ndarray:
    """Dispatch to the configured strategy for one cycle.

    ``profits`` and ``affinities`` are the cycle's m x n matrices, ``mask``
    its available compatible pairs (read by ``wpp`` only) and ``max_ap`` its
    maximum affinity pressure (read by ``os`` only).  The result is the
    float64 m x n value matrix, the formula on every pair; ``GapProblem``
    checks it, and the solver reads it, on the available pairs alone.
    """
    if config.kind == "pc":
        return pc_values(config.alpha, config.beta, profits, affinities)
    if config.kind == "wpp":
        return wpp_values(profits, affinities, mask)
    # fop, foa and os each take one matrix as it is
    by_profit = config.kind == "fop" \
        or (config.kind == "os" and config.gamma > max_ap)
    return (profits if by_profit else affinities).astype(np.float64)
