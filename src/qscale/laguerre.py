"""Laguerre polynomials, Laguerre functions, and their exponential convolutions.

The basis is ``phi_{alpha,k}(x) = sqrt(2 alpha) L_k(2 alpha x) e^{-alpha x}``,
a complete orthonormal system of L^2(0, inf) with the uniform bound
``|phi_{alpha,k}| <= sqrt(2 alpha)``.

The workhorse is the convolution integral

    Psi_{alpha,k}(x; b) = int_0^x e^{b(x-z)} phi_{alpha,k}(z) dz,

evaluated through an exact first-order recurrence in k (derived from the
Laguerre generating function):

    s J_k + (2a - s) J_{k-1} = -e^{-a x} [L_k - L_{k-1}](2 a x),   s = a + b,

where ``J_k = Psi_{alpha,k} / sqrt(2a)``.  One ``ladder`` runs every recurrence
``diag y_k + off y_{k-1} = d_k`` in k (Psi here, the H-kernels in ``series``),
amplifying errors by |off / diag| per step, so each caller runs it where that
is at most 1: for Psi forward (diag = s, off = 2a - s) when b >= 0 and
backward on the reversed sources (diag = 2a - s, off = s) when b < 0.  The
backward sweep is seeded at the top order by Gauss-Legendre quadrature
restricted to the window where the kernel e^{b(x-z)} is non-negligible; the
contraction then damps the (already ~1e-15) seed error further.  This keeps
orders up to k = 64 stable in double precision, which a monomial expansion of
L_k cannot do (binomial cancellation).

The degenerate regime b ~ -alpha (s ~ 0) needs no special casing: it falls in
the backward branch, which never divides by s.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DomainError

__all__ = [
    "LaguerreParams",
    "laguerre_poly",
    "laguerre_poly_all",
    "laguerre_fn",
    "laguerre_fn_all",
    "psi_integral",
    "psi_integral_all",
    "psi_integral_and_db_all",
    "psi_integral_db_all",
    "partial_sum",
    "ladder",
]


@dataclass(frozen=True)
class LaguerreParams:
    """Basis scale alpha > 0 and truncation order K >= 0."""

    alpha: float
    K: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if self.K < 0 or int(self.K) != self.K:
            raise DomainError(f"K must be a nonnegative integer, got {self.K}")

    @property
    def sq2a(self) -> float:
        return float(np.sqrt(2.0 * self.alpha))


def _laguerre_rows(kmax: int, t, m0):
    """m0 * L_k(t) for k = 0..kmax, one row at a time.

    (k+1) L_{k+1} = (2k+1-t) L_k - k L_{k-1}; the recurrence is linear, so a
    factor m0 carried from the first row (e^{-alpha x} for the Laguerre
    functions) keeps the rows overflow-free.
    """
    cur = m0
    yield cur
    if kmax >= 1:
        prev, cur = cur, (1.0 - t) * cur
        yield cur
    for k in range(1, kmax):
        prev, cur = cur, ((2 * k + 1 - t) * cur - k * prev) / (k + 1)
        yield cur


def _fill_rows(kmax: int, t: np.ndarray, m0) -> np.ndarray:
    """The rows of _laguerre_rows stacked; shape (kmax+1, *t.shape)."""
    out = np.empty((kmax + 1,) + t.shape, dtype=float)
    for k, row in enumerate(_laguerre_rows(kmax, t, m0)):
        out[k] = row
    return out


def laguerre_poly_all(kmax: int, x) -> np.ndarray:
    """L_k(x) for k = 0..kmax via the three-term recurrence; shape (kmax+1, *x.shape)."""
    return _fill_rows(kmax, np.asarray(x, dtype=float), 1.0)


def laguerre_poly(k: int, x):
    """Laguerre polynomial L_k(x); (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}."""
    res = laguerre_poly_all(k, x)[k]
    return float(res) if np.ndim(x) == 0 else res


def _weighted_laguerre_all(kmax: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """M_k(x) = L_k(2 alpha x) e^{-alpha x}; same recurrence, overflow-free."""
    return _fill_rows(kmax, 2.0 * alpha * x, np.exp(-alpha * x))


def laguerre_fn_all(params: LaguerreParams, x, kmax: int | None = None) -> np.ndarray:
    """phi_{alpha,k}(x) for k = 0..kmax (default params.K); shape (kmax+1, *x.shape)."""
    kmax = params.K if kmax is None else kmax
    x = np.asarray(x, dtype=float)
    return params.sq2a * _weighted_laguerre_all(kmax, params.alpha, x)


def laguerre_fn(params: LaguerreParams, k: int, x):
    """phi_{alpha,k}(x) = sqrt(2 alpha) L_k(2 alpha x) e^{-alpha x}, x >= 0."""
    res = laguerre_fn_all(params, x, kmax=k)[k]
    return float(res) if np.ndim(x) == 0 else res


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _backward_seed(kmax: int, alpha: float, x: np.ndarray, b: float) -> np.ndarray:
    """J_kmax(x; b) = int_0^x e^{b(x-z)} L_kmax(2 a z) e^{-a z} dz for b < 0.

    Gauss-Legendre on [max(0, x - w), x] with w chosen so the neglected part
    of the kernel is below e^{-45}; node count covers polynomial degree kmax
    plus the exponential factor on the window.
    """
    u, wts = _leggauss(96 + kmax)
    w = np.minimum(x, 45.0 / (-b)) if b < -1e-12 else x
    half = 0.5 * w
    mid = x - w + half
    z = mid[..., None] + half[..., None] * u  # (nx, n_nodes)
    # L_kmax(2 alpha z) e^{-alpha z} at the nodes: only the top row is kept
    m = deque(_laguerre_rows(kmax, 2.0 * alpha * z, np.exp(-alpha * z)), maxlen=1).pop()
    kern = np.exp(b * (x[..., None] - z))
    return half * np.einsum("...q,q->...", kern * m, wts)


def ladder(y0, d: np.ndarray, diag: float, off: float) -> np.ndarray:
    """y_0 = y0 and y_k = (-off y_{k-1} + d_k) / diag for k = 1..len(d).

    The first-order recurrence diag y_k + off y_{k-1} = d_k, with d[k-1]
    holding d_k; shape (len(d)+1, *y0.shape).  Errors grow by |off / diag|
    per step, so a backward sweep passes its sources reversed.
    """
    y = np.empty((len(d) + 1,) + np.shape(y0))
    y[0] = y0
    for k in range(1, len(y)):
        y[k] = (-off * y[k - 1] + d[k - 1]) / diag
    return y


def psi_integral_all(
    params: LaguerreParams, x, b: float, kmax: int | None = None
) -> np.ndarray:
    """Psi_{alpha,k}(x; b) for k = 0..kmax, vectorized over x; shape (kmax+1, *x.shape)."""
    kmax = params.K if kmax is None else kmax
    a = params.alpha
    x_in = np.asarray(x, dtype=float)
    x = np.atleast_1d(x_in)
    s = a + b
    # sources -(M_k - M_{k-1}) for k = 1..kmax
    d = -np.diff(_weighted_laguerre_all(kmax, a, x), axis=0)
    if b >= 0.0:
        # forward: amplification |a-b|/(a+b) <= 1
        J = ladder(np.exp(b * x) * (-np.expm1(-s * x)) / s, d, s, 2.0 * a - s)
    else:
        # backward: contraction |a+b|/(a-b) < 1; quadrature seed at the top
        J = ladder(_backward_seed(kmax, a, x, b), d[::-1], 2.0 * a - s, s)[::-1]
    res = params.sq2a * J
    return res[:, 0] if x_in.ndim == 0 else res


def psi_integral(params: LaguerreParams, k: int, x, b: float):
    """Psi_{alpha,k}(x; b) = int_0^x e^{b(x-z)} phi_{alpha,k}(z) dz."""
    sub = LaguerreParams(params.alpha, k)
    res = psi_integral_all(sub, x, b)[k]
    return float(res) if np.ndim(x) == 0 else res


def psi_integral_and_db_all(params: LaguerreParams, x, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(Psi_{alpha,k}(x; b), d/db Psi_{alpha,k}(x; b)) for k = 0..K from one sweep.

    d/db Psi_k = x Psi_k - int_0^x z e^{b(x-z)} phi_k(z) dz, and the three-term
    identity t L_k = (2k+1) L_k - (k+1) L_{k+1} - k L_{k-1} expresses the
    z-weighted integral through Psi_{k-1}, Psi_k, Psi_{k+1} (one order above K).
    """
    psi = psi_integral_all(params, x, b, kmax=params.K + 1)
    x = np.asarray(x, dtype=float)
    k = np.arange(params.K + 1.0).reshape((-1,) + (1,) * x.ndim)
    zpsi = (2 * k + 1) * psi[:-1] - (k + 1) * psi[1:]
    zpsi[1:] -= k[1:] * psi[:-2]
    return psi[:-1], x * psi[:-1] - zpsi / (2.0 * params.alpha)


def psi_integral_db_all(params: LaguerreParams, x, b: float) -> np.ndarray:
    """d/db Psi_{alpha,k}(x; b) for k = 0..K."""
    return psi_integral_and_db_all(params, x, b)[1]


def partial_sum(coeffs: np.ndarray, params: LaguerreParams, x):
    """sum_k coeffs[k] * phi_{alpha,k}(x); coeffs has length K+1."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("coeffs must be a 1-d vector")
    phi = laguerre_fn_all(params, x, kmax=len(coeffs) - 1)
    res = np.tensordot(coeffs, phi, axes=(0, 0))
    return float(res) if np.ndim(x) == 0 else res
