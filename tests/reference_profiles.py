"""Dense covariance-plus-inverse profile cost used as an oracle in tests.

The library scores candidates from an eigen-factor of each landmark's
training covariance and never forms an inverse. This module keeps the
direct form that the factor replaces: the symmetrized sample covariance C,
the ridge rho = eps * trace(C) / d (floored at 1e-12 when eps > 0), the
explicit inverse of C + rho * I, and the quadratic form evaluated row by
row.
"""

import numpy as np


def sample_covariance(rows):
    """(mean, covariance) of an (m, d) sample matrix, divisor m - 1."""
    rows = np.asarray(rows, dtype=float)
    mean = rows.mean(axis=0)
    dev = rows - mean
    return mean, dev.T @ dev / (rows.shape[0] - 1)


def regularized_inverse(cov, eps):
    """(C + rho * I)^-1 for the symmetrized covariance C."""
    cov = np.asarray(cov, dtype=float)
    cov = (cov + cov.T) / 2
    d = cov.shape[0]
    ridge = eps * float(np.trace(cov)) / d
    if eps > 0:
        ridge = max(ridge, 1e-12)
    return np.linalg.inv(cov + ridge * np.eye(d))


def dense_costs(mean, cov, eps, rows):
    """delta^T (C + rho * I)^-1 delta for every row, one row at a time."""
    inverse = regularized_inverse(cov, eps)
    out = []
    for row in np.atleast_2d(np.asarray(rows, dtype=float)):
        delta = row - mean
        out.append(float(delta @ inverse @ delta))
    return np.array(out)
