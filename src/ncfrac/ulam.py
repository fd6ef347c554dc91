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
K_{i+1} <= k <= K_i.  The two boundary branches are clipped to the cell, each
only over its own columns, (N/t_{i+1} - k)m to (N/t_i - k)m, widened by
2 + k*m/2^50 columns because k + c rounds by up to k/2^53; outside that window
the clip is exactly 0.  The branches strictly between lie inside the cell,
and their sum over k telescopes to a difference of digamma steps
psi(a + c + 1/m) - psi(a + c), evaluated without cancellation by
:func:`_psi_tail`, four rows to a call, which takes each power of the
series once per cell edge.

Only the nonzero structure is built and iterated.  A row with such an interior
run of branches is nonzero in every column; any other row is nonzero only in
its boundary windows, about N m^2/(i(i+1)) columns together.  The rows up to
the last one that has an interior run or whose windows span more than a third
of the row, about sqrt(3 N m) of them, form a dense head built one row at a
time.  Every later row keeps only its windows' columns and
masses, assembled for all of them at once.  The stationary solve multiplies
pi by the head and adds the tail with one weighted bincount, so no m-by-m
array is formed: at m = 2048 it holds 2.3 MB at N = 1 and 6.6 MB at N = 10
instead of 33.6 MB.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import _np as np
from .dynamics import check_index

__all__ = [
    "PowerIterationError",
    "UlamModel",
    "build_model",
    "density_l1_error",
]

# caps build_model, the only grid; finer grids are out of scope
MAX_CELLS = 2048

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
    stationary: np.ndarray
    l1_error: float
    iterations: int


def _psi_tail(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_{k>=a} (1/(k+c_j) - 1/(k+c_{j+1})) = psi(a+c_{j+1}) - psi(a+c_j).

    ``a`` is a column of integer values, ``c`` the row of the m + 1 cell edges
    j/m, and h = c[1] the cell width; there is one value per cell j.  Terms
    below _PSI_SERIES_FROM are added explicitly; from there the asymptotic
    series is differenced term by term, so no two digamma values cancel.
    Each power is taken once per edge and neighbours are differenced.

    Term p is about 2p |c_p| x^-2p h/x and the sum about h/x, so the series
    ends at its first term with 4p |c_p| x^-2p < 2**-56 at the smallest x:
    that term and every later one is below 2**-57 of the sum, under a quarter
    ulp, and cannot change a bit of it.
    """
    h = c[1]
    edges = np.maximum(a, _PSI_SERIES_FROM) + c
    x, y = edges[..., :-1], edges[..., 1:]
    # log1p(t) rounds to t below 2**-53, and is slow where t is subnormal
    total = h / x
    if total.max() >= 2.0**-53:
        total = np.log1p(total)
    # x*y overflows for N*m above about 1.3e154, where the term is below 1e-300
    # and h/inf = 0 is right to double precision
    with np.errstate(over="ignore"):
        total += h / (2 * x * y)
    # the cut drops p = 4 from a = 92, 3 from 389, 2 from 8326 and 1 from
    # 1.55e8, so no power is taken where it would underflow to a slow subnormal
    x_min = max(float(a.min()), _PSI_SERIES_FROM)
    for power, coeff in enumerate(_PSI_SERIES, start=1):
        if 4 * power * abs(coeff) * x_min ** (-2 * power) < 2.0**-56:
            break
        z = edges ** (-2 * power)
        total -= coeff * (z[..., 1:] - z[..., :-1])
    for k in range(int(a.min()), _PSI_SERIES_FROM):
        z = k + c
        total += np.where(k >= a, h / (z[:-1] * z[1:]), 0.0)
    return total


def _clip(N: int, x: np.ndarray, lo, hi) -> np.ndarray:
    """Preimage edges N/x, x = k + c on branch k, clipped to the row [lo, hi];
    computed in place in ``x``."""
    np.divide(N, x, out=x)
    np.maximum(x, lo, out=x)
    return np.minimum(x, hi, out=x)


def _windows(N: int, m: int, K: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row, branch and column window [lo, hi) of every row's lower boundary
    branch K_{i+1}, then of the upper one K_i of each row i > 0 with
    K_i > K_{i+1}, as in the module docstring."""
    ratio = np.array([math.inf, *(N * m / i for i in range(1, m + 1))])  # N/t_i
    upper = np.flatnonzero(K[1:-1] > K[2:]) + 1
    rows = np.concatenate([np.arange(m), upper])
    k = np.concatenate([K[1:], K[upper]])
    # an edge can be +-inf (a product overflows near the top of the float
    # range, as a float product would), so it is clamped before the cast
    with np.errstate(over="ignore"):
        pad = 2 + k * m * 2**-50
        lo = np.clip((ratio[rows + 1] - k) * m - pad, 0.0, m).astype(np.intp)
        hi = np.clip((ratio[rows] - k) * m + pad, 0.0, m).astype(np.intp)
    return rows, k, lo, hi


def _compact_masses(N: int, m: int) -> tuple[np.ndarray, ...]:
    """Exact all-branch cell masses, unscaled by m (build_model normalises
    each row), as ``(head, rows, lengths, cols, vals)``.  ``head`` holds rows
    0..H-1 densely.  Each later row is its boundary windows alone, the lower
    branches' first: window w covers ``lengths[w]`` columns of row ``rows[w]``,
    and the windows' columns and masses lie end to end in ``cols`` and ``vals``."""
    check_index(N)
    if m < 16:
        raise ValueError(f"need at least 16 cells, got {m}")
    if m > MAX_CELLS:
        raise ValueError(f"grids beyond {MAX_CELLS} cells are not supported, got {m}")
    if N * m > sys.float_info.max:  # the branch edges K_i = floor(N*m/i) must be floats
        raise OverflowError(f"density-l1[m={m}] at N = {N} is beyond the float range")
    c = np.arange(m + 1, dtype=np.float64) / m  # row and column edges alike
    # K_i = floor(N/t_i) in exact integers; K_0 = inf, and branch K_0 clips to
    # nothing and has psi tail 0
    K = np.array([math.inf, *(float(N * m // i) for i in range(1, m + 1))])
    win_rows, k, lo, hi = _windows(N, m, K)
    # the head ends at the last row that has an interior run of branches, which
    # fills it, or whose windows span more than a third of it; a tail row then
    # holds at most m/3 columns and masses, which with the solve's one weight
    # per entry take no more bytes than a dense row
    run = K[:-1] - K[1:] >= 2
    dense = run | (np.bincount(win_rows, hi - lo, minlength=m) > m / 3)
    H = int(np.flatnonzero(dense)[-1]) + 1
    in_head = win_rows < H

    # the tail's windows all at once, built before the head so that their
    # temporaries and the head never coexist: window w's edges are columns
    # lo..hi, laid end to end, and the difference across two windows' meeting
    # is dropped
    rows, lengths = win_rows[~in_head], (hi - lo)[~in_head]
    span = lengths + 1
    start = np.cumsum(span) - span
    edges = np.arange(span.sum()) + np.repeat(lo[~in_head] - start, span)
    u = c[edges]
    u += np.repeat(k[~in_head], span)
    u = _clip(N, u, np.repeat(c[rows], span), np.repeat(c[rows + 1], span))
    last = (start + lengths)[:-1]  # each window's last edge but the final one
    vals = np.delete(u[:-1] - u[1:], last)
    del u
    cols = np.delete(edges[:-1], last)
    del edges

    head = np.zeros((H, m))
    windows = [v[in_head].tolist() for v in (win_rows, k, lo, hi)]
    del win_rows, k, lo, hi  # the psi tails' temporaries then add to the head alone
    for i, branch, l, h in zip(*windows):
        # column j's preimage is (u[j+1], u[j]]; u decreases, so clipping it to
        # the row turns each difference into the overlap's length
        u = _clip(N, branch + c[l : h + 1], c[i], c[i + 1])
        head[i, l:h] += u[:-1] - u[1:]
    # four rows to a call: row i's two tails, from K_{i+1} + 1 and from K_i, are
    # rows 2r and 2r + 1 of one column
    run_rows = np.flatnonzero(run[:H])
    for s in range(0, len(run_rows), 4):
        i = run_rows[s : s + 4]
        tails = _psi_tail(np.stack([K[i + 1] + 1, K[i]], axis=1).reshape(-1, 1), c)
        head[i] += N * (tails[0::2] - tails[1::2])
    return head, rows, lengths, cols, vals


def _power_iteration(matvec: Callable[[np.ndarray], np.ndarray], m: int) -> tuple[np.ndarray, int]:
    """Left power iteration of pi -> matvec(pi) from uniform over m cells."""
    pi = np.full(m, 1.0 / m)
    step = math.inf
    for iteration in range(1, _MAX_ITERATIONS + 1):
        nxt = matvec(pi)
        nxt /= nxt.sum()
        step = float(np.abs(nxt - pi).sum())
        pi = nxt
        if step < _STEP_TOL:
            return pi, iteration
    raise PowerIterationError(_MAX_ITERATIONS, step)


def density_l1_error(N: int, m: int, pi: np.ndarray) -> float:
    """L1 distance between the cell histogram (pi * m) and the analytic density
    1/((N + x) log(1 + 1/N)) sampled at cell midpoints."""
    check_index(N)
    mids = (np.arange(m) + 0.5) / m
    analytic = 1.0 / ((N + mids) * math.log1p(1.0 / N))
    return float(np.abs(pi * m - analytic).sum() / m)


def build_model(N: int, m: int) -> UlamModel:
    """Assemble the compact operator, solve for its stationary vector, score the
    recovery."""
    head, rows, lengths, cols, vals = _compact_masses(N, m)
    head /= head.sum(axis=1, keepdims=True)
    sums = np.bincount(np.repeat(rows, lengths), vals, minlength=m)  # the tail rows'
    vals /= np.repeat(sums[rows], lengths)

    def matvec(pi: np.ndarray) -> np.ndarray:
        weights = np.repeat(pi[rows], lengths)
        weights *= vals
        # OpenBLAS takes a product of 512 columns on one thread, and the whole
        # head on two for no gain; the blocks give the whole product's bits
        lead = pi[: len(head)]
        nxt = np.concatenate([lead @ head[:, s : s + 512] for s in range(0, m, 512)])
        nxt += np.bincount(cols, weights, minlength=m)
        return nxt

    pi, iterations = _power_iteration(matvec, m)
    return UlamModel(
        N=N,
        m=m,
        stationary=pi,
        l1_error=density_l1_error(N, m, pi),
        iterations=iterations,
    )

