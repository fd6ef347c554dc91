"""Grid transfer-operator models: stochasticity, stationarity, density recovery."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from ncfrac import (
    PowerIterationError,
    build_model,
    density,
    density_l1_error,
)
from ncfrac.ulam import _compact_masses, _power_iteration, _psi_tail

_FLOAT_MAX = int(sys.float_info.max)


def _cell_masses(N, m):
    """The dense m-by-m matrix of the compact masses times m, before row
    normalisation: the oracle that build_model's operator is checked against."""
    P, rows, lengths, cols, vals = _compact_masses(N, m)
    # the head grows into the whole matrix in place, zero-filled below; no
    # other reference to it exists
    P.resize((m, m), refcheck=False)
    # unbuffered and in order: a column in both windows of a row gets the lower
    # branch's mass first, as in the row-by-row assembly
    np.add.at(P, (np.repeat(rows, lengths), cols), vals)
    P *= m
    return P


def transition_matrix(N, m):
    """Row-stochastic dense cell-transition matrix of the index-N map."""
    P = _cell_masses(N, m)
    P /= P.sum(axis=1, keepdims=True)
    return P


def stationary(P):
    """Stationary vector of a dense row-stochastic matrix by the library's solve."""
    return _power_iteration(lambda v: v @ P, len(P))[0]


def _blocked_cell_masses(N, m, block=6):
    """The earlier assembly, kept as the bitwise reference: a full-width clip of
    every row against its lower boundary branch, a second clip against the
    upper one, then the psi tails, each over blocks of rows."""
    def clipped(k, rows):
        u = N / (k + c)
        hi = np.minimum(u[:, :-1], c[rows + 1, None])
        return np.maximum(0.0, hi - np.maximum(u[:, 1:], c[rows, None]))

    def blocks(rows):
        return (rows[s : s + block] for s in range(0, len(rows), block))

    c = np.arange(m + 1, dtype=np.float64) / m
    K = np.array([math.inf, *(N * m // i for i in range(1, m + 1))], dtype=np.float64)
    P = np.empty((m, m))
    for rows in blocks(np.arange(m)):
        P[rows] = clipped(K[rows + 1, None], rows)
    for rows in blocks(np.flatnonzero(K[:-1] > K[1:])):
        P[rows] += clipped(K[rows, None], rows)
    for rows in blocks(np.flatnonzero(K[:-1] - K[1:] >= 2)):
        P[rows] += N * (_psi_tail(K[rows + 1, None] + 1, c) - _psi_tail(K[rows, None], c))
    P *= m
    return P


_ORACLE_CASES = [
    *((N, m)
      for m in (16, 17, 100, 512)
      for N in (1, 2, 3, 5, 7, 10, 12, 100, 1000, 10**6, 10**9, 10**12, 4 * 10**12,
                10**15, 10**18, 10**100)),
    *((N, 2048) for N in (1, 10, 10**12, 10**15)),
    # the last indices inside the float-range guard of _compact_masses
    *(pytest.param(_FLOAT_MAX // m - d, m, id=f"floatmax//{m}-{d}-{m}")
      for m in (16, 17, 100, 512, 2048) for d in (0, 1)),
]


def _psi_tail_full_series(a, c):
    """_psi_tail without its per-term cut of the series, every power taken at
    every cell edge, kept as the reference that the cut changes no bit."""
    h = c[1]
    edges = np.maximum(a, 32) + c
    x, y = edges[..., :-1], edges[..., 1:]
    with np.errstate(over="ignore"):
        total = np.log1p(h / x) + h / (2 * x * y)
    for power, coeff in enumerate((1 / 12, -1 / 120, 1 / 252, -1 / 240), start=1):
        z = edges ** (-2 * power)
        total -= coeff * (z[..., 1:] - z[..., :-1])
    for k in range(int(a.min()), 32):
        z = k + c
        total += np.where(k >= a, h / (z[:-1] * z[1:]), 0.0)
    return total


def _branch_reference(N, m):
    """Clip every branch k = N..N*m against every cell; exact on rows 1..m-1,
    which no larger branch reaches."""
    edges = np.arange(m + 1) / m
    P = np.zeros((m, m))
    for k in range(N, N * m + 1):
        u = N / (k + edges)  # column j's preimage is (u[j+1], u[j]]
        P += np.maximum(
            0.0,
            np.minimum(u[None, :-1], edges[1:, None]) - np.maximum(u[None, 1:], edges[:-1, None]),
        )
    return P * m


def _mpmath_matrix(N, m):
    """m times the second difference on the grid of
    F(c, t) = |{x < t : {N/x} < c}| = N(psi(K+1+c) - psi(K+1)) + max(0, t - N/(K+c)),
    K = floor(N/t), at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = [mpmath.mpf(j) / m for j in range(m + 1)]
        F = [[mpmath.mpf(0)] * (m + 1)]
        for i in range(1, m + 1):
            t, K = mpmath.mpf(i) / m, N * m // i
            base = mpmath.digamma(K + 1)
            F.append([N * (mpmath.digamma(K + 1 + cj) - base) + max(0, t - N / (K + cj)) for cj in c])
        return np.array(
            [[float(m * (F[i + 1][j + 1] - F[i + 1][j] - F[i][j + 1] + F[i][j])) for j in range(m)]
             for i in range(m)]
        )


class TestMatrixAssembly:
    def test_rows_are_stochastic(self):
        for N, m in ((1, 64), (5, 128)):
            P = transition_matrix(N, m)
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
            assert P.min() >= 0.0

    @pytest.mark.parametrize("N, m", [(1, 17), (10, 2048), (1000, 512), (10**30, 64)])
    def test_every_branch_is_counted(self, N, m):
        # row sums before the final normalisation: no mass is folded in
        P = _cell_masses(N, m)
        assert P.min() >= 0.0
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("N, m", _ORACLE_CASES)
    def test_matches_blocked_assembly_bitwise(self, N, m):
        P = _cell_masses(N, m)
        assert np.array_equal(P, _blocked_cell_masses(N, m))
        assert not np.signbit(P).any()  # no -0.0 entry, which array_equal would miss

    @pytest.mark.parametrize("N, m", [(1, 64), (3, 64), (10, 32), (2, 17)])
    def test_matches_finite_branch_reference(self, N, m):
        P = transition_matrix(N, m)
        assert np.abs(P - _branch_reference(N, m))[1:].max() < 1e-13

    @pytest.mark.parametrize("N, m", [(1, 64), (2, 64), (7, 32), (40, 16),
                                      (3, 17), (7, 48), (2, 100)])
    def test_matches_mpmath_operator(self, N, m):
        exact = _mpmath_matrix(N, m)
        assert np.abs(transition_matrix(N, m) - exact).max() < 1e-13

    @pytest.mark.parametrize("m", [16, 17, 100, 512, 2048])
    def test_psi_series_skip_changes_no_bit(self, m):
        # every grid takes each power at its own cell edges, powers of two or not
        c = np.arange(m + 1) / m
        top = float(_FLOAT_MAX // m)
        start = 2.0**56 * m  # the first a whose series was skipped before the per-term cut
        cuts = (92.0, 389.0, 8326.0, 154981283.0)  # the first a without term p = 4, 3, 2, 1
        for a in (*np.floor(np.geomspace(32.0, top, 160)), np.nextafter(start, 0), start, top,
                  *cuts, *(cut - 1 for cut in cuts)):
            column = np.array([[a], [a + 1]])
            assert np.array_equal(_psi_tail(column, c), _psi_tail_full_series(column, c))
        # the real run rows' columns [K_{i+1} + 1, K_i], four rows to a call as
        # in _compact_masses, with K_0 = inf
        for N in (1, 2, 5, 10, 100, 10**6):
            K = np.array([math.inf, *(N * m // i for i in range(1, m + 1))], dtype=np.float64)
            run = np.flatnonzero(K[:-1] - K[1:] >= 2)
            for s in range(0, len(run), 4):
                i = run[s : s + 4]
                column = np.stack([K[i + 1] + 1, K[i]], axis=1).reshape(-1, 1)
                assert np.array_equal(_psi_tail(column, c),
                                      _psi_tail_full_series(column, c)), (N, i)

    def test_grid_size_limits(self):
        with pytest.raises(ValueError):
            build_model(1, 8)
        with pytest.raises(ValueError):
            build_model(1, 4096)


class TestStationary:
    def test_fixed_point_of_matrix(self):
        model = build_model(1, 64)
        pi = model.stationary
        assert np.abs(pi @ transition_matrix(1, 64) - pi).sum() < 1e-12
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi.min() >= 0.0

    @pytest.mark.parametrize("N, m", [
        *((N, m) for m in (16, 32, 100, 512) for N in (1, 2, 5, 10, 100, 1000, 10**12)),
        (1, 2048), (10, 2048),
    ])
    def test_compact_solve_matches_dense(self, N, m):
        model = build_model(N, m)
        P = transition_matrix(N, m)
        assert np.abs(model.stationary - stationary(P)).max() <= 1e-15
        assert model.iterations == _power_iteration(lambda pi: pi @ P, m)[1]

    @pytest.mark.parametrize("N", [1, 10])
    def test_compact_model_memory(self, N):
        # the dense 2048-cell matrix alone is 32 MiB; N = 10 has the largest
        # head and the most psi tails of the benchmark's grid
        build_model(N, 2048)
        tracemalloc.start()
        try:
            build_model(N, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_converges_quickly(self):
        model = build_model(1, 64)
        assert model.iterations < 200

    def test_nonconvergence_raises_with_diagnostics(self):
        # a periodic chain: from uniform the iterates alternate, each step 2/3 in L1
        P = [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(PowerIterationError) as info:
            stationary(P)
        assert info.value.iterations == 100_000
        assert info.value.residual == pytest.approx(2 / 3)


class TestDensityRecovery:
    def test_classical_density_recovered(self):
        model = build_model(1, 256)
        assert model.l1_error < 0.01
        mids = (np.arange(256) + 0.5) / 256
        analytic = np.array([density(1, x) for x in mids])
        assert np.abs(model.stationary * 256 - analytic).max() < 0.02

    def test_l1_error_small_for_larger_index(self):
        model = build_model(5, 256)
        assert model.l1_error < 0.01

    def test_refinement_strictly_improves(self):
        for N in (1, 2):
            errors = [build_model(N, m).l1_error for m in (32, 128, 512)]
            assert errors[0] > errors[1] > errors[2]

    def test_l1_error_helper_consistent(self):
        model = build_model(3, 64)
        assert density_l1_error(3, 64, model.stationary) == model.l1_error
