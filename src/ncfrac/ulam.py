"""Grid discretization of the transfer operator and its stationary density.

The unit interval is cut into m equal cells and the map's action is reduced
to the row-stochastic matrix

    P[i][j] = |cell_i intersect T^{-1}(cell_j)| / |cell_i|,

assembled from exact branch preimages: on branch k (k >= N) the preimage of
[c, d) is the interval (N/(k+d), N/(k+c)].  The stationary vector of P is a
histogram approximation of the invariant density, recovered here without
ever using the closed form, so it cross-checks the analytic density
independently.

Every branch is included; nothing is truncated.  With K_i = floor(N/t_i) at
row edge t_i = i/m (K_0 = infinity), row i meets only branches
K_{i+1} <= k <= K_i.  The two boundary branches are clipped to the cell; the
branches strictly between lie inside it, and their sum over k telescopes to
a difference of digamma steps psi(a + c + 1/m) - psi(a + c), evaluated
without cancellation by :func:`_psi_tail`.
"""

from __future__ import annotations

import csv
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .dynamics import check_index

__all__ = [
    "PowerIterationError",
    "UlamModel",
    "build_model",
    "density_l1_error",
    "density_profile",
    "stationary",
    "transition_matrix",
    "write_density_profile",
]

MAX_CELLS = 2048  # dense matrices only; finer grids are out of scope
_BLOCK = 8  # rows assembled together: 130 KB per temporary at MAX_CELLS, in cache

# psi(x) ~ log x - 1/(2x) - sum_k B_2k/(2k x^2k): coefficients of x^-2 .. x^-8
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240)
_PSI_SERIES_FROM = 32  # the omitted x^-10 term is below 1e-17 from here on


class PowerIterationError(RuntimeError):
    """Power iteration failed to reach the requested step tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations (last L1 step {residual:.3e})"
        )


@dataclass
class UlamModel:
    """Discretized operator with its stationary vector and recovery error."""

    N: int
    m: int
    matrix: np.ndarray
    stationary: np.ndarray
    l1_error: float
    iterations: int

    def summary(self) -> dict:
        return {
            "N": self.N,
            "m": self.m,
            "l1_error": self.l1_error,
            "iterations": self.iterations,
        }


def _psi_tail(a: np.ndarray, x0: np.ndarray, h: float) -> np.ndarray:
    """sum_{k>=a} (1/(k+x0) - 1/(k+x0+h)) = psi(a+x0+h) - psi(a+x0).

    ``a`` is a column of integer values, ``x0`` a row of offsets in [0, 1).  Terms
    below _PSI_SERIES_FROM are added explicitly; from there the asymptotic
    series is differenced term by term, so no two digamma values cancel.
    """
    x = np.maximum(a, _PSI_SERIES_FROM) + x0
    y = x + h
    # x*y overflows for N*m above about 1.3e154, where the term is below 1e-300
    # and h/inf = 0 is right to double precision
    with np.errstate(over="ignore"):
        total = np.log1p(h / x) + h / (2 * x * y)
    for power, coeff in enumerate(_PSI_SERIES, start=1):
        total -= coeff * (y ** (-2 * power) - x ** (-2 * power))
    for k in range(int(a.min()), _PSI_SERIES_FROM):
        z = k + x0
        total += np.where(k >= a, h / (z * (z + h)), 0.0)
    return total


def _clipped(N: int, k: np.ndarray, c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Length of each row's cell inside branch k's preimage of each column."""
    u = N / (k + c)  # decreasing; column j's preimage is (u[j+1], u[j]]
    hi = np.minimum(u[:, :-1], c[rows + 1, None])
    return np.maximum(0.0, hi - np.maximum(u[:, 1:], c[rows, None]))


def _row_blocks(rows: np.ndarray):
    return (rows[s : s + _BLOCK] for s in range(0, len(rows), _BLOCK))


def _cell_masses(N: int, m: int) -> np.ndarray:
    """Exact all-branch cell-transition matrix before row normalisation."""
    c = np.arange(m + 1, dtype=np.float64) / m  # row and column edges alike
    # K_i = floor(N/t_i) in exact integers; branch K_0 = inf clips to nothing
    # and its psi tail is 0
    K = np.array([math.inf, *(N * m // i for i in range(1, m + 1))], dtype=np.float64)
    P = np.empty((m, m))
    for rows in _row_blocks(np.arange(m)):
        P[rows] = _clipped(N, K[rows + 1, None], c, rows)
    for rows in _row_blocks(np.flatnonzero(K[:-1] > K[1:])):
        P[rows] += _clipped(N, K[rows, None], c, rows)

    x0, h = c[:-1], 1.0 / m
    for rows in _row_blocks(np.flatnonzero(K[:-1] - K[1:] >= 2)):
        P[rows] += N * (_psi_tail(K[rows + 1, None] + 1, x0, h) - _psi_tail(K[rows, None], x0, h))
    P *= m
    return P


def transition_matrix(N: int, m: int) -> np.ndarray:
    """Row-stochastic m-by-m cell-transition matrix of the index-N map."""
    check_index(N)
    if m < 16:
        raise ValueError(f"need at least 16 cells, got {m}")
    if m > MAX_CELLS:
        raise ValueError(f"dense grids beyond {MAX_CELLS} cells are not supported, got {m}")
    if N * m > sys.float_info.max:  # the branch edges K_i = floor(N*m/i) must be floats
        raise OverflowError(f"transition-matrix[m={m}] at N = {N} is beyond the float range")
    P = _cell_masses(N, m)
    P /= P.sum(axis=1, keepdims=True)
    return P


def stationary(
    model_or_matrix: Union[UlamModel, np.ndarray],
    tol: float = 1e-13,
    max_iters: int = 100_000,
) -> np.ndarray:
    """Stationary probability vector by left power iteration from uniform.

    Stops when the L1 step change drops below tol; raises
    :class:`PowerIterationError` (with iteration diagnostics) otherwise.
    """
    pi, _ = _power_iteration(_matrix_of(model_or_matrix), tol, max_iters)
    return pi


def _matrix_of(model_or_matrix) -> np.ndarray:
    if isinstance(model_or_matrix, UlamModel):
        return model_or_matrix.matrix
    return np.asarray(model_or_matrix, dtype=np.float64)


def _power_iteration(P: np.ndarray, tol: float, max_iters: int) -> tuple[np.ndarray, int]:
    m = P.shape[0]
    pi = np.full(m, 1.0 / m)
    step = math.inf
    for iteration in range(1, max_iters + 1):
        nxt = pi @ P
        nxt /= nxt.sum()
        step = float(np.abs(nxt - pi).sum())
        pi = nxt
        if step < tol:
            return pi, iteration
    raise PowerIterationError(max_iters, step)


def _midpoint_density(N: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell midpoints and the invariant density 1/((N + x) log(1 + 1/N)) there."""
    check_index(N)
    mids = (np.arange(m) + 0.5) / m
    return mids, 1.0 / ((N + mids) * math.log1p(1.0 / N))


def density_l1_error(N: int, m: int, pi: np.ndarray) -> float:
    """L1 distance between the cell histogram (pi * m) and the analytic density
    sampled at cell midpoints."""
    _, analytic = _midpoint_density(N, m)
    return float(np.abs(pi * m - analytic).sum() / m)


def build_model(N: int, m: int) -> UlamModel:
    """Assemble the matrix, solve for its stationary vector, score the recovery."""
    P = transition_matrix(N, m)
    pi, iterations = _power_iteration(P, 1e-13, 100_000)  # stationary's defaults
    return UlamModel(
        N=N,
        m=m,
        matrix=P,
        stationary=pi,
        l1_error=density_l1_error(N, m, pi),
        iterations=iterations,
    )


def density_profile(model: UlamModel) -> np.ndarray:
    """Columns (cell midpoint, recovered density, analytic density), one row per cell."""
    mids, analytic = _midpoint_density(model.N, model.m)
    return np.column_stack([mids, model.stationary * model.m, analytic])


def write_density_profile(model: UlamModel, file: Union[str, IO[str]]) -> None:
    """Dump the density profile as CSV (midpoint, empirical, analytic) for plotting."""
    rows = density_profile(model)
    with open(file, "w", newline="") if isinstance(file, str) else nullcontext(file) as handle:
        writer = csv.writer(handle)
        writer.writerow(["midpoint", "empirical", "analytic"])
        for mid, emp, ana in rows:
            writer.writerow([repr(float(mid)), repr(float(emp)), repr(float(ana))])
