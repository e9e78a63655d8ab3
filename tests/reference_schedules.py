"""The subgradient coefficient check as it was first written, for tests only.

It gathers the logs of every (i, t) pair through a meshgrid and fancy
indexing. `spikeopt.schedules.validate_subgrad_coefficients` takes each log
once per vector and broadcasts; the tests require both to give the same
verdict.
"""

import numpy as np


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
