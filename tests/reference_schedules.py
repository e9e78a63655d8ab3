"""The subgradient coefficient check and the step-row makers as they were
first written, for tests only.

The check gathers the logs of every (i, t) pair through a meshgrid and fancy
indexing. `spikeopt.schedules.validate_subgrad_coefficients` takes each log
once per vector and broadcasts; the tests require both to give the same
verdict.

The row makers call each coefficient wherever the row reads it, several
times per step. `spikeopt.schedules.signgd_step_factors` and
`subgrad_step_factors` read each coefficient's value at t once, from the
set's memo; the tests require both to give the same rows, bit for bit, and
the same refusals.
"""

import numpy as np

from spikeopt.schedules import ScheduleError

# the largest scale whose reciprocal overflows
_NO_RECIPROCAL = 2.0**-1024


def reference_validate_subgrad_coefficients(c, s, t_max, tol=1e-10):
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


def reference_signgd_step_factors(c, t):
    s = c.schedule
    eta, a2, b2_prev = float(s(t)), float(c.alpha2(t)), float(c.beta2(t - 1))
    for name, k, value in (("alpha2", t, a2), ("beta2", t - 1, b2_prev)):
        if value == 0.0:
            raise ScheduleError(f"sign-dynamics step {t} under {s}: {name}({k}) is 0 (its step "
                                f"size underflows to 0); the decode after step {t - 1} reads "
                                f"this step's u scale too")
    u_scale, v_scale = float(s(t - 1)) / b2_prev, eta / a2
    if abs(u_scale) <= _NO_RECIPROCAL or abs(v_scale) <= _NO_RECIPROCAL:
        name, value = ("u", u_scale) if abs(u_scale) <= _NO_RECIPROCAL else ("v", v_scale)
        raise ScheduleError(f"sign-dynamics step {t} under {s}: its {name} scale {value:.3g} is "
                            f"at most 2**-1024, so {name}, the decoded value over it, leaves the "
                            f"float range (the decode after step {t - 1} reads this step's u "
                            f"scale too)")
    return (eta, float(c.alpha1(t - 1)), a2, u_scale, v_scale, float(c.beta1(t)),
            float(c.beta2(t)))


def reference_subgrad_step_factors(c, t):
    return (float(c.alpha(t - 1)), float(c.gamma(t)), float(c.beta(t)),
            float(c.schedule(t)))
