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

A coefficient set carries the schedule it was solved for, and memoizes, in
plain dicts of float tuples that refer to nothing that refers back to the
set, its coefficients' values at each t it is asked for (`at(t)`, the
schedule evaluated once for every coefficient that is it) and the scalars
of each step (`row(t)`, made from the values at t and t - 1); a sign step
that floats cannot take has no row (`signgd_step_factors`).
Everything else here is pure, stateless evaluation: safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "Schedule",
    "SignGdCoefficients",
    "SubgradCoefficients",
    "ScheduleError",
    "parse_schedule",
    "float_text",
    "solve_signgd_coefficients",
    "validate_signgd_coefficients",
    "solve_subgrad_coefficients",
    "validate_subgrad_coefficients",
    "check_coefficients",
    "signgd_step_factors",
    "subgrad_step_factors",
]


# the largest scale whose reciprocal overflows
_NO_RECIPROCAL = 2.0**-1024


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
        if not all(math.isfinite(p) for p in self.params):
            raise ScheduleError(f"schedule parameters must be finite: {self.params}")
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
        prefix = {"inverse": "inv", "exponential": "exp", "constant": "const"}[self.kind]
        return ":".join([prefix, *map(float_text, self.params)])


def float_text(x: float) -> str:
    """x as its `:g` text where that reads back as x, else as the shortest
    text that does: how schedules and mechanism names write their numbers."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


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
class _StepRows:
    """A coefficient set's memos: `at(t)` is the floats of its coefficients
    at t (`_values_at(t)`), and `row(t)` its family's step factors of step
    t (`_factors(t)`), each evaluated on first use."""

    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def at(self, t: int) -> tuple:
        values = self._values.get(t)
        if values is None:
            self._values[t] = values = self._values_at(t)
        return values

    def row(self, t: int) -> tuple:
        row = self._rows.get(t)
        if row is None:
            self._rows[t] = row = self._factors(t)
        return row


@dataclass(frozen=True)
class SignGdCoefficients(_StepRows):
    """Coefficient set (alpha1, alpha2, beta1, beta2) for sign-based dynamics
    under `schedule`.

    Each coefficient is a callable of t (int or ndarray) returning positive
    values. `at(t)` holds (eta(t), alpha1(t), alpha2(t), beta1(t),
    beta2(t)), a coefficient that is the schedule read from its one
    evaluation, and `row(t)` is the `signgd_step_factors` row of step t.
    """

    alpha1: Callable
    alpha2: Callable
    beta1: Callable
    beta2: Callable
    schedule: Schedule = field(repr=False)

    def _values_at(self, t):
        s = self.schedule
        eta = float(s(t))
        return (eta, float(self.alpha1(t)), eta if self.alpha2 is s else float(self.alpha2(t)),
                float(self.beta1(t)), eta if self.beta2 is s else float(self.beta2(t)))

    def _factors(self, t):
        return signgd_step_factors(self, t)


def solve_signgd_coefficients(s: Schedule, parameterization: str = "canonical") -> SignGdCoefficients:
    """Produce a named coefficient set for schedule `s`.

    canonical:     alpha1 = beta1 = 1, alpha2(t) = beta2(t) = eta(t).
    unit-current:  exponential schedules a*g**t only; alpha1 = 1/g, beta1 = g,
                   alpha2 = beta2 = eta(1) (constant increments, decaying scale).
    """
    if parameterization == "canonical":
        return SignGdCoefficients(alpha1=_const(1.0), alpha2=s, beta1=_const(1.0), beta2=s,
                                  schedule=s)
    if parameterization == "unit-current":
        if s.kind != "exponential":
            raise ScheduleError(
                f"unit-current parameterization requires an exponential schedule, got {s.kind}"
            )
        a, g = s.params
        eta1 = a * g
        return SignGdCoefficients(
            alpha1=_const(1.0 / g), alpha2=_const(eta1),
            beta1=_const(g), beta2=_const(eta1), schedule=s,
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
class SubgradCoefficients(_StepRows):
    """Coefficient set (alpha, beta, gamma) for subgradient-based dynamics
    under `schedule`. `at(t)` holds (alpha(t), gamma(t), beta(t), eta(t)),
    a coefficient that is the schedule read from its one evaluation, and
    `row(t)` is the `subgrad_step_factors` row of step t."""

    alpha: Callable
    beta: Callable
    gamma: Callable
    schedule: Schedule = field(repr=False)

    def _values_at(self, t):
        s = self.schedule
        eta = float(s(t))
        return (float(self.alpha(t)), eta if self.gamma is s else float(self.gamma(t)),
                eta if self.beta is s else float(self.beta(t)), eta)

    def _factors(self, t):
        return subgrad_step_factors(self, t)


def solve_subgrad_coefficients(s: Schedule,
                               parameterization: str = "canonical") -> SubgradCoefficients:
    """Canonical solution alpha(t) = 1 - eta(t+1), beta(t) = gamma(t) = eta(t),
    the only named one.

    Requires eta(t) < 1 over the evaluated range so 1 - eta(t) stays positive;
    all supported kinds are non-increasing for t >= 1, so eta(1) < 1 suffices.
    """
    if parameterization != "canonical":
        raise ScheduleError(f"subgradient coefficients have only the canonical "
                            f"parameterization, not {parameterization!r}")
    if s(1) >= 1.0:
        raise ScheduleError(
            f"subgradient coefficients need eta(t) < 1; schedule {s} has eta(1) = {s(1):g}"
        )
    return SubgradCoefficients(
        alpha=lambda t: 1.0 - s(t + 1),
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
    if (eta >= 1.0).any() or (alpha <= 0).any() or (beta <= 0).any() or (gamma <= 0).any():
        return False

    # Condition 1: (beta(t)/eta(t)) (1 - eta(t)) = (beta(t-1)/eta(t-1)) alpha(t-1)
    lhs = (beta[1:] / eta[1:]) * (1.0 - eta[1:])
    rhs = (beta[:-1] / eta[:-1]) * alpha[:-1]
    if not (np.abs(lhs - rhs) <= tol * np.maximum(1.0, np.abs(rhs))).all():
        return False

    # Condition 2 in logs: log eta(i) - log eta(t) + sum_{j=i+1..t} log(1-eta(j))
    #                    = log gamma(i) - log beta(t) + sum_{j=i..t-1} log alpha(j),
    # each side a grid [i - 1, t - 1] of which the triangle i <= t is checked
    cum_lom = np.concatenate([[0.0], np.cumsum(np.log1p(-eta))])  # prefix over j=1..t
    cum_la = np.concatenate([[0.0], np.cumsum(np.log(alpha))])
    log_eta = np.log(eta)
    lhs_log = (
        log_eta[:, None] - log_eta
        + (cum_lom[1:] - cum_lom[1:, None])
    )
    rhs_log = (
        np.log(gamma)[:, None] - np.log(beta)
        + (cum_la[:-1] - cum_la[:-1, None])
    )
    return bool(((np.abs(lhs_log - rhs_log) <= tol) | _below_diagonal(t_max)).all())


def check_coefficients(c: SignGdCoefficients | SubgradCoefficients) -> None:
    """Raise ScheduleError unless `c` meets its family's constraint equations
    under its own schedule: a sign set to t = 64 within 1e-9, a subgradient
    set to t = 32. A check on overflowing values fails quietly."""
    with np.errstate(all="ignore"):
        if isinstance(c, SignGdCoefficients):
            family, ok = "sign-dynamics", validate_signgd_coefficients(
                c, c.schedule, t_max=64, tol=1e-9)
        else:
            family, ok = "subgradient", validate_subgrad_coefficients(c, c.schedule, t_max=32)
    if not ok:
        raise ScheduleError(f"{family} coefficients violate their constraint equations")


@lru_cache(maxsize=None)
def _below_diagonal(n: int) -> np.ndarray:
    """(n, n) mask of the entries [i, t] with i > t."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def signgd_step_factors(c: SignGdCoefficients, t: int) -> tuple:
    """Scalars of sign-dynamics step t as floats: (eta(t), alpha1(t-1),
    alpha2(t), eta(t-1)/beta2(t-1), eta(t)/alpha2(t), beta1(t), beta2(t)),
    from the set's values at t and t - 1 (`at`).

    A ScheduleError refuses a step that cannot be taken in floats, a step
    whose u scale the decode after step t - 1 reads too:
    - alpha2(t) or beta2(t-1) is 0 (under exp:0.5:0.5 from t = 1074);
    - its u scale eta(t-1)/beta2(t-1) or v scale eta(t)/alpha2(t) is at
      most 2**-1024 in magnitude, whose reciprocal overflows, so that u and
      v, the decoded values over their scales, leave the float range even
      for a decoded value of 1. The unit-current set of exp:a:g has scales
      g**(t-2) and g**(t-1) while u and v grow by 1/g per step: under
      exp:0.5:0.5 v reaches 1.1e308 at step 1024 on neuron-sweep's grid and
      inf at step 1025, the first step refused (v scale 2**-1024). A
      canonical set's scales are 1."""
    eta, _, a2, b1, b2 = c.at(t)
    eta_prev, a1_prev, _, _, b2_prev = c.at(t - 1)
    if a2 == 0.0 or b2_prev == 0.0:
        name, k = ("alpha2", t) if a2 == 0.0 else ("beta2", t - 1)
        raise ScheduleError(f"sign-dynamics step {t} under {c.schedule}: {name}({k}) is 0 (its "
                            f"step size underflows to 0); the decode after step {t - 1} reads "
                            f"this step's u scale too")
    u_scale, v_scale = eta_prev / b2_prev, eta / a2
    if abs(u_scale) <= _NO_RECIPROCAL or abs(v_scale) <= _NO_RECIPROCAL:
        name, value = ("u", u_scale) if abs(u_scale) <= _NO_RECIPROCAL else ("v", v_scale)
        raise ScheduleError(f"sign-dynamics step {t} under {c.schedule}: its {name} scale "
                            f"{value:.3g} is at most 2**-1024, so {name}, the decoded value over "
                            f"it, leaves the float range (the decode after step {t - 1} reads "
                            f"this step's u scale too)")
    return eta, a1_prev, a2, u_scale, v_scale, b1, b2


def subgrad_step_factors(c: SubgradCoefficients, t: int) -> tuple:
    """Scalars of subgradient step t: (alpha(t-1), gamma(t), beta(t), eta(t)),
    from the set's values at t - 1 and t (`at`)."""
    alpha, _, _, _ = c.at(t - 1)
    _, gamma, beta, eta = c.at(t)
    return alpha, gamma, beta, eta
