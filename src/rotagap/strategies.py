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

# not called here: the benchmark's probe (perfbench/probe.py) wraps this name
from .affinity import max_affinity_pressure  # noqa: F401
from .domain import spec_number

STRATEGY_KINDS = ("fop", "foa", "os", "pc", "wpp")


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


def os_values(gamma: float, profits: np.ndarray, affinities: np.ndarray,
              mask: np.ndarray, max_ap: float) -> np.ndarray:
    """Objective switch: the profit matrix while ``gamma > max_ap``, the
    affinity matrix otherwise."""
    source = profits if gamma > max_ap else affinities
    return np.where(mask, source, 0).astype(np.float64)


def pc_values(alpha: float, beta: float, profits: np.ndarray,
              affinities: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Product combination ``p**alpha * a**beta`` elementwise; 0**0 == 1 so
    the fop/foa special cases hold entrywise."""
    v = np.power(profits.astype(np.float64), alpha) \
        * np.power(affinities.astype(np.float64), beta)
    return np.where(mask, v, 0.0)


def wpp_values(profits: np.ndarray, affinities: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """Weighted partial profits.

    With c_j available compatible agents for task j, the blend weight is

        lambda_j = (c_j * (c_j + 1) / 2) / sum_i a[i, j]

    over the same agents, and the value is
    ``lambda_j * p/max_p + (1 - lambda_j) * a/max_a`` with global maxima over
    all available pairs.  lambda is used unclamped, so early cycles (all
    affinities 1) can push entries negative; those are clamped to 0 to keep
    the solver's non-negativity contract.
    """
    if not mask.any():
        return np.zeros_like(profits, dtype=np.float64)
    max_p = int(profits[mask].max())
    max_a = int(affinities[mask].max())
    if max_p <= 0 or max_a <= 0:
        raise ValueError(
            f"wpp needs positive profit and affinity maxima over available "
            f"pairs (got max profit {max_p}, max affinity {max_a})")
    counts = mask.sum(axis=0).astype(np.float64)
    sums = np.where(mask, affinities, 0).sum(axis=0).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(sums > 0, (counts * (counts + 1) / 2.0) / sums, 0.0)
    v = lam[None, :] * (profits / max_p) + (1.0 - lam[None, :]) * (affinities / max_a)
    return np.where(mask, np.maximum(v, 0.0), 0.0)


def compute_values(config: StrategyConfig, profits: np.ndarray,
                   affinities: np.ndarray, mask: np.ndarray,
                   max_ap: float) -> np.ndarray:
    """Dispatch to the configured strategy for one cycle.

    ``profits`` and ``affinities`` are the cycle's m x n matrices, ``mask``
    its available compatible pairs and ``max_ap`` its maximum affinity
    pressure (read by ``os`` only).  The result is the float64 m x n value
    matrix, zero off ``mask``; ``GapProblem`` checks that its values on the
    available pairs are finite and non-negative.
    """
    if config.kind == "fop":
        return np.where(mask, profits, 0).astype(np.float64)
    if config.kind == "foa":
        return np.where(mask, affinities, 0).astype(np.float64)
    if config.kind == "os":
        return os_values(config.gamma, profits, affinities, mask, max_ap)
    if config.kind == "pc":
        return pc_values(config.alpha, config.beta, profits, affinities, mask)
    return wpp_values(profits, affinities, mask)  # the one kind left
