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
K_{i+1} <= k <= K_i.  The matrix is built one row at a time.  The two
boundary branches are clipped to the cell, each only over its own columns,
(N/t_{i+1} - k)m to (N/t_i - k)m, widened by 2 + k*m/2^50 columns because
k + c rounds by up to k/2^53; outside that window the clip is exactly 0.  The
branches strictly between lie inside the cell, and their sum over k
telescopes to a difference of digamma steps psi(a + c + 1/m) - psi(a + c),
evaluated without cancellation by :func:`_psi_tail`.
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

# psi(x) ~ log x - 1/(2x) - sum_k B_2k/(2k x^2k): coefficients of x^-2 .. x^-8
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240)
_PSI_SERIES_FROM = 32  # the omitted x^-10 term is below 1e-17 from here on
_STEP_TOL = 1e-13  # power iteration stops at an L1 step below this ...
_MAX_ITERATIONS = 100_000  # ... or raises PowerIterationError after this many


class PowerIterationError(RuntimeError):
    """Power iteration failed to reach its step tolerance."""

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


def _cell_masses(N: int, m: int) -> np.ndarray:
    """Exact all-branch cell-transition matrix before row normalisation."""
    c = np.arange(m + 1, dtype=np.float64) / m  # row and column edges alike
    # N/t_i, and K_i = floor(N/t_i) in exact integers; N/t_0 = K_0 = inf, and
    # branch K_0 clips to nothing and has psi tail 0
    ratio = [math.inf, *(N * m / i for i in range(1, m + 1))]
    K = [math.inf, *(float(N * m // i) for i in range(1, m + 1))]
    P = np.zeros((m, m))
    for i in range(m):
        for k in (K[i + 1], K[i]) if 0 < i and K[i] > K[i + 1] else (K[i + 1],):
            # branch k's column window, as in the module docstring; an edge can
            # be +-inf, so it is clamped before int()
            pad = 2 + k * m * 2**-50
            lo = int(min(max((ratio[i + 1] - k) * m - pad, 0.0), m))
            hi = int(min(max((ratio[i] - k) * m + pad, 0.0), m))
            # column j's preimage is (u[j+1], u[j]]; u decreases, so clipping it
            # to the row turns each difference into the overlap's length
            u = np.minimum(np.maximum(N / (k + c[lo : hi + 1]), c[i]), c[i + 1])
            P[i, lo:hi] += u[:-1] - u[1:]
        if K[i] - K[i + 1] >= 2:
            tails = _psi_tail(np.array([[K[i + 1] + 1], [K[i]]]), c[:-1], 1.0 / m)
            P[i] += N * (tails[0] - tails[1])
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


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary probability vector of a row-stochastic matrix by left power
    iteration from uniform, stopping at an L1 step below 1e-13; raises
    :class:`PowerIterationError` (with iteration diagnostics) after 100,000.
    """
    pi, _ = _power_iteration(np.asarray(P, dtype=np.float64))
    return pi


def _power_iteration(P: np.ndarray) -> tuple[np.ndarray, int]:
    m = P.shape[0]
    pi = np.full(m, 1.0 / m)
    step = math.inf
    for iteration in range(1, _MAX_ITERATIONS + 1):
        nxt = pi @ P
        nxt /= nxt.sum()
        step = float(np.abs(nxt - pi).sum())
        pi = nxt
        if step < _STEP_TOL:
            return pi, iteration
    raise PowerIterationError(_MAX_ITERATIONS, step)


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
    pi, iterations = _power_iteration(P)
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
