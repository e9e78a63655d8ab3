"""Step-size schedules and the coefficient families that make neuronal dynamics
match their optimizer forms.

A schedule eta(t) is a positive closed-form sequence, evaluable for any t >= 0
(t = 0 is only used for initialization reads). Two coefficient families are
derived from a schedule:

* sign-based dynamics coefficients (alpha1, alpha2, beta1, beta2), constrained by

      eta(1) = alpha2(1) = beta2(1)
      eta(t)/eta(t-1) = beta1(t) * beta2(t)/beta2(t-1)
                      = alpha2(t) / (alpha1(t-1) * alpha2(t-1))      for t >= 2

* subgradient dynamics coefficients (alpha, beta, gamma), constrained by

      (beta(t)/eta(t)) * (1 - eta(t)) = (beta(t-1)/eta(t-1)) * alpha(t-1)
      (eta(i)/eta(t)) * prod_{j=i+1..t} (1 - eta(j))
          = (gamma(i)/beta(t)) * prod_{j=i..t-1} alpha(j)            for i <= t

Both constraint systems define families; we pin two named solutions
("canonical" and "unit-current") and expose replay validators so any custom
coefficient set can be checked numerically.

Everything here but `StepTable` (a per-instance memo) is pure, stateless
evaluation: safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "Schedule",
    "SignGdCoefficients",
    "SubgradCoefficients",
    "ScheduleError",
    "parse_schedule",
    "solve_signgd_coefficients",
    "validate_signgd_coefficients",
    "solve_subgrad_coefficients",
    "validate_subgrad_coefficients",
    "signgd_step_factors",
    "subgrad_step_factors",
    "StepTable",
]


class ScheduleError(ValueError):
    """Bad schedule parameters or a schedule used outside its valid range."""


def _const(v: float) -> Callable:
    def f(t):
        if isinstance(t, (int, float)):
            return v
        out = np.full_like(np.asarray(t, dtype=np.float64), v)
        return out if out.ndim else float(v)

    return f


@dataclass(frozen=True)
class Schedule:
    """Closed-form step-size schedule eta(t).

    kinds:
      inverse(c):          eta(t) = c / (t + 1)
      exponential(a, g):   eta(t) = a * g**t,  0 < g <= 1
      constant(c):         eta(t) = c
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("inverse", "exponential", "constant"):
            raise ScheduleError(f"unknown schedule kind: {self.kind!r}")
        if any(p <= 0 for p in self.params):
            raise ScheduleError(f"schedule parameters must be positive: {self.params}")
        if self.kind == "exponential":
            a, g = self.params
            if not 0.0 < g <= 1.0:
                raise ScheduleError(f"exponential decay factor must be in (0, 1], got {g}")

    @classmethod
    def inverse(cls, c: float = 1.0) -> "Schedule":
        return cls("inverse", (float(c),))

    @classmethod
    def exponential(cls, a: float, gamma: float) -> "Schedule":
        return cls("exponential", (float(a), float(gamma)))

    @classmethod
    def constant(cls, c: float) -> "Schedule":
        return cls("constant", (float(c),))

    def __call__(self, t):
        """Evaluate eta(t); t may be an int or an integer ndarray."""
        if isinstance(t, (int, float)):
            if self.kind == "inverse":
                return self.params[0] / (t + 1.0)
            if self.kind == "exponential":
                a, g = self.params
                return a * g**t
            return self.params[0]
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "inverse":
            out = self.params[0] / (t + 1.0)
        elif self.kind == "exponential":
            a, g = self.params
            out = a * g**t
        else:
            out = np.full_like(t, self.params[0])
        return out if out.ndim else float(out)

    def cumulative(self, T: int) -> float:
        """sum_{t=1..T} eta(t): the reachable output range of signed coding."""
        return float(np.sum(self(np.arange(1, T + 1))))

    def __str__(self) -> str:
        if self.kind == "inverse":
            return f"inv:{self.params[0]:g}"
        if self.kind == "exponential":
            return f"exp:{self.params[0]:g}:{self.params[1]:g}"
        return f"const:{self.params[0]:g}"


def parse_schedule(text: str) -> Schedule:
    """Parse the CLI/config syntax: inv:<c>, exp:<a>:<gamma>, const:<c>."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "inv" and len(parts) == 2:
            return Schedule.inverse(float(parts[1]))
        if parts[0] == "exp" and len(parts) == 3:
            return Schedule.exponential(float(parts[1]), float(parts[2]))
        if parts[0] == "const" and len(parts) == 2:
            return Schedule.constant(float(parts[1]))
    except ValueError as exc:
        raise ScheduleError(f"bad schedule literal {text!r}: {exc}") from None
    raise ScheduleError(
        f"bad schedule syntax {text!r}; expected inv:<c>, exp:<a>:<gamma> or const:<c>"
    )


@dataclass(frozen=True)
class SignGdCoefficients:
    """Coefficient set (alpha1, alpha2, beta1, beta2) for sign-based dynamics.

    Each field is a callable of t (int or ndarray) returning positive values.
    `parameterization` records which named solution produced it ("canonical",
    "unit-current", or "custom").
    """

    alpha1: Callable
    alpha2: Callable
    beta1: Callable
    beta2: Callable
    parameterization: str = "custom"

    def replace(self, **kwargs) -> "SignGdCoefficients":
        """Return a copy with some callables swapped (used by debug corruption)."""
        return replace(self, **{"parameterization": "custom", **kwargs})


def solve_signgd_coefficients(s: Schedule, parameterization: str = "canonical") -> SignGdCoefficients:
    """Produce a named coefficient set for schedule `s`.

    canonical:     alpha1 = beta1 = 1, alpha2(t) = beta2(t) = eta(t).
    unit-current:  exponential schedules a*g**t only; alpha1 = 1/g, beta1 = g,
                   alpha2 = beta2 = eta(1) (constant increments, decaying scale).
    """
    if parameterization == "canonical":
        return SignGdCoefficients(
            alpha1=_const(1.0), alpha2=s, beta1=_const(1.0), beta2=s,
            parameterization="canonical",
        )
    if parameterization == "unit-current":
        if s.kind != "exponential":
            raise ScheduleError(
                f"unit-current parameterization requires an exponential schedule, got {s.kind}"
            )
        a, g = s.params
        eta1 = a * g
        return SignGdCoefficients(
            alpha1=_const(1.0 / g), alpha2=_const(eta1),
            beta1=_const(g), beta2=_const(eta1),
            parameterization="unit-current",
        )
    raise ScheduleError(f"unknown parameterization {parameterization!r}")


def validate_signgd_coefficients(
    c: SignGdCoefficients, s: Schedule, t_max: int, tol: float = 1e-12
) -> bool:
    """Replay the coefficient constraints for 2 <= t <= t_max plus the t=1 anchor."""
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    anchor = abs(s(1) - c.alpha2(1)) <= tol and abs(s(1) - c.beta2(1)) <= tol
    if not anchor:
        return False
    t = np.arange(2, t_max + 1)
    ratio = np.asarray(s(t)) / np.asarray(s(t - 1))
    beta_side = np.asarray(c.beta1(t)) * np.asarray(c.beta2(t)) / np.asarray(c.beta2(t - 1))
    alpha_side = np.asarray(c.alpha2(t)) / (np.asarray(c.alpha1(t - 1)) * np.asarray(c.alpha2(t - 1)))
    return bool(
        np.all(np.abs(ratio - beta_side) <= tol) and np.all(np.abs(ratio - alpha_side) <= tol)
    )


@dataclass(frozen=True)
class SubgradCoefficients:
    """Coefficient set (alpha, beta, gamma) for subgradient-based dynamics."""

    alpha: Callable
    beta: Callable
    gamma: Callable
    schedule: Schedule = field(repr=False, default=None)


def solve_subgrad_coefficients(s: Schedule) -> SubgradCoefficients:
    """Canonical solution alpha(t) = 1 - eta(t+1), beta(t) = gamma(t) = eta(t).

    Requires eta(t) < 1 over the evaluated range so 1 - eta(t) stays positive;
    all supported kinds are non-increasing for t >= 1, so eta(1) < 1 suffices.
    """
    if s(1) >= 1.0:
        raise ScheduleError(
            f"subgradient coefficients need eta(t) < 1; schedule {s} has eta(1) = {s(1):g}"
        )
    return SubgradCoefficients(
        alpha=lambda t: 1.0 - np.asarray(s(np.asarray(t) + 1)),
        beta=s,
        gamma=s,
        schedule=s,
    )


def validate_subgrad_coefficients(
    c: SubgradCoefficients, s: Schedule, t_max: int, tol: float = 1e-10
) -> bool:
    """Replay both subgradient-coefficient conditions up to t_max.

    The product condition is checked for every pair i <= t with products
    accumulated in log space (they underflow quickly otherwise).
    """
    t = np.arange(1, t_max + 1)
    eta = np.asarray(s(t), dtype=np.float64)
    alpha = np.asarray(c.alpha(t), dtype=np.float64)
    beta = np.asarray(c.beta(t), dtype=np.float64)
    gamma = np.asarray(c.gamma(t), dtype=np.float64)
    if np.any(eta >= 1.0) or np.any(alpha <= 0) or np.any(beta <= 0) or np.any(gamma <= 0):
        return False

    # Condition 1: (beta(t)/eta(t)) (1 - eta(t)) = (beta(t-1)/eta(t-1)) alpha(t-1)
    lhs = (beta[1:] / eta[1:]) * (1.0 - eta[1:])
    rhs = (beta[:-1] / eta[:-1]) * alpha[:-1]
    if not np.all(np.abs(lhs - rhs) <= tol * np.maximum(1.0, np.abs(rhs))):
        return False

    # Condition 2 in logs: log eta(i) - log eta(t) + sum_{j=i+1..t} log(1-eta(j))
    #                    = log gamma(i) - log beta(t) + sum_{j=i..t-1} log alpha(j)
    cum_lom = np.concatenate([[0.0], np.cumsum(np.log1p(-eta))])  # prefix over j=1..t
    cum_la = np.concatenate([[0.0], np.cumsum(np.log(alpha))])
    ii, tt = np.meshgrid(np.arange(1, t_max + 1), np.arange(1, t_max + 1), indexing="ij")
    mask = ii <= tt
    i_idx, t_idx = ii[mask], tt[mask]
    lhs_log = (
        np.log(eta[i_idx - 1]) - np.log(eta[t_idx - 1])
        + (cum_lom[t_idx] - cum_lom[i_idx])
    )
    rhs_log = (
        np.log(gamma[i_idx - 1]) - np.log(beta[t_idx - 1])
        + (cum_la[t_idx - 1] - cum_la[i_idx - 1])
    )
    return bool(np.all(np.abs(lhs_log - rhs_log) <= tol))


def signgd_step_factors(c: SignGdCoefficients, s: Schedule, t: int) -> tuple:
    """Scalars of sign-dynamics step t as floats: (eta(t), alpha1(t-1),
    alpha2(t), eta(t-1)/beta2(t-1), eta(t)/alpha2(t), beta1(t), beta2(t))."""
    eta, a2, b2_prev = float(s(t)), float(c.alpha2(t)), float(c.beta2(t - 1))
    return (eta, float(c.alpha1(t - 1)), a2, float(s(t - 1)) / b2_prev, eta / a2,
            float(c.beta1(t)), float(c.beta2(t)))


def subgrad_step_factors(c: SubgradCoefficients, t: int) -> tuple:
    """Scalars of subgradient step t: (alpha(t-1), gamma(t), beta(t), eta(t))."""
    return (float(c.alpha(t - 1)), float(c.gamma(t)), float(c.beta(t)),
            float(c.schedule(t)))


class StepTable(dict):
    """t -> row(t), each row evaluated on first use. The layers and readout
    of one network instance share a table instead of re-evaluating the
    schedule and coefficient callables in every layer."""

    def __init__(self, row: Callable[[int], tuple]):
        super().__init__()
        self.row = row

    def __missing__(self, t: int) -> tuple:
        self[t] = row = self.row(t)
        return row
