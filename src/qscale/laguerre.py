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
backward sweep is seeded at the top order by Gauss-Legendre quadrature in the
offset t = x - z, over the window where both the kernel e^{bt} and the basis
function are above e^{-45}, with a node count sized to each x's window (see
``_seed_windows``); the contraction then damps the (already ~1e-15) seed error
further.  The sweep runs over chunks of a bounded number of (x, node) pairs,
so its memory does not grow with the number of x beyond the output.  This
keeps orders up to k = 64 stable in double precision, which a monomial
expansion of L_k cannot do (binomial cancellation).

The degenerate regime b ~ -alpha (s ~ 0) needs no special casing: it falls in
the backward branch, which never divides by s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .exceptions import DomainError

__all__ = [
    "LaguerreParams",
    "laguerre_poly",
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
    functions) keeps the rows overflow-free.  From k = 1 on the rows rotate
    through three buffers updated in place, so row k is overwritten while row
    k + 2 is formed: copy what must outlive that.
    """
    yield m0
    if kmax == 0:
        return
    prev = np.full(np.shape(t), m0, dtype=float)
    cur = np.subtract(1.0, t, out=np.empty_like(prev))
    cur *= prev
    yield cur
    buf = np.empty_like(cur)
    for k in range(1, kmax):
        np.subtract(2 * k + 1, t, out=buf)
        buf *= cur
        prev *= k
        buf -= prev
        buf /= k + 1
        prev, cur, buf = cur, buf, prev
        yield cur


def _fill_rows(kmax: int, t: np.ndarray, m0) -> np.ndarray:
    """The rows of _laguerre_rows stacked; shape (kmax+1, *t.shape)."""
    out = np.empty((kmax + 1,) + t.shape, dtype=float)
    for k, row in enumerate(_laguerre_rows(kmax, t, m0)):
        out[k] = row
    return out


def laguerre_poly(k: int, x):
    """Laguerre polynomial L_k(x); (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}."""
    res = _fill_rows(k, np.asarray(x, dtype=float), 1.0)[k]
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


# The backward seed neglects kernel and basis tails below e^{-_TAIL}.
_TAIL = 45.0
# Seed node counts are rounded up to a multiple of this, so few rules are cached.
_NODE_STEP = 8
# (x, node) pairs per chunk of the backward sweep: bounds its temporaries.
_CHUNK_PAIRS = 1 << 14


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> np.ndarray:
    """Rows (1 + nodes, weights) of the n-node Gauss-Legendre rule on [-1, 1]; read-only."""
    u, wts = special.roots_legendre(n)
    rule = np.stack([1.0 + u, wts])
    rule.flags.writeable = False
    return rule


def _seed_windows(kmax: int, alpha: float, x: np.ndarray, b: float):
    """Per x: start t0, half-length h and node count n of the seed's offset window.

    In the offset t = x - z the seed integrand is e^{bt} M_kmax(x - t).  The
    kernel is below e^{-45} past t = 45/|b| (the near end, left at x for
    |b| <= 1e-12).  Since |L_K(s)| <= sum_j C(K, j) s^j / j! <= 5^K e^{s/4},
    |M_K(z)| <= 5^K e^{-alpha z / 2}, so z beyond (2/alpha)(45 + K ln 5) adds
    below (2/alpha) e^{-45} (the far end).  On [t0, t0 + 2h] the integrand is
    e^{-alpha x} e^{(alpha + b) t} times a polynomial of degree kmax in t;
    mapped to [-1, 1] the exponential is e^{kappa u} with |kappa| <=
    (alpha + |b|) h.  Its Chebyshev coefficients 2 I_j(kappa) fall below eps
    relative to e^kappa before j = 2 kappa + 24, and n Gauss-Legendre nodes
    integrate degree 2n - 1 exactly (Trefethen 2008, SIAM Rev. 50), so
    n = ceil((kmax + 1)/2) + ceil((alpha + |b|) h) + 12, rounded up to a
    multiple of 8.  The two ends bound (alpha + |b|) h by 45 when |b| >= alpha
    and by 90 + 3.22 kmax when |b| < alpha, so n <= 111 + 3.72 kmax for every x.
    """
    w = np.minimum(x, _TAIL / -b) if b < -1e-12 else x
    t0 = np.maximum(x - 2.0 * (_TAIL + kmax * math.log(5.0)) / alpha, 0.0)
    h = 0.5 * np.fmax(w - t0, 0.0)  # a NaN x gets an empty window and a NaN seed
    n = (kmax + 2) // 2 + np.ceil((alpha - b) * h).astype(np.int64) + 12
    return t0, h, -(-n // _NODE_STEP) * _NODE_STEP


def _backward_sweep(kmax: int, alpha: float, x: np.ndarray, b: float) -> np.ndarray:
    """J_k(x; b) for k = 0..kmax and b < 0, x 1-d; shape (kmax+1, len(x)).

    The backward ladder is seeded at kmax by J_kmax(x; b) =
    int e^{bt} M_kmax(x - t) dt, taken by Gauss-Legendre in the offset
    t = x - z on each x's window (``_seed_windows``), so the nodes stay
    distinct however far below the spacing of doubles at x the window is.
    The x are swept in chunks of about ``_CHUNK_PAIRS`` (x, node) pairs, so
    the temporaries stay bounded whatever len(x) and the windows are.  In a
    chunk the x and all their nodes share one flat array and one Laguerre
    recurrence: every row at the x (the ladder's sources), only the top row
    at the nodes, summed per x by ``np.add.reduceat``.
    """
    J = np.empty((kmax + 1, len(x)))
    if not len(x):
        return J
    # a chunk ends at the first x whose pairs reach a multiple of _CHUNK_PAIRS;
    # each chunk recomputes its windows, so only `ends` spans every x
    ends = np.cumsum(_seed_windows(kmax, alpha, x, b)[2])
    cuts = np.searchsorted(ends, np.arange(_CHUNK_PAIRS, ends[-1], _CHUNK_PAIRS)) + 1
    bounds = np.unique(np.r_[0, cuts, len(x)])
    s = alpha + b
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        xc = x[lo:hi]
        t0, h, n = _seed_windows(kmax, alpha, xc, b)
        one_u, wts = np.concatenate([_gauss_legendre(k) for k in n.tolist()], axis=1)
        owner = np.repeat(np.arange(hi - lo), n)
        t = t0[owner] + h[owner] * one_u
        z = np.concatenate([xc, xc[owner] - t])
        M = np.empty((kmax + 1, hi - lo))
        for k, row in enumerate(_laguerre_rows(kmax, 2.0 * alpha * z, np.exp(-alpha * z))):
            M[k] = row[: hi - lo]
        seed = h * np.add.reduceat(wts * np.exp(b * t) * row[hi - lo :], np.cumsum(n) - n)
        J[:, lo:hi] = ladder(seed, (M[:-1] - M[1:])[::-1], 2.0 * alpha - s, s)[::-1]
    return J


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
    if b >= 0.0:
        # forward: amplification |a-b|/(a+b) <= 1; sources -(M_k - M_{k-1})
        s = a + b
        d = -np.diff(_weighted_laguerre_all(kmax, a, x), axis=0)
        J = ladder(np.exp(b * x) * (-np.expm1(-s * x)) / s, d, s, 2.0 * a - s)
    else:
        # backward: contraction |a+b|/(a-b) < 1; quadrature seed at the top
        J = _backward_sweep(kmax, a, x.ravel(), b).reshape((kmax + 1,) + x.shape)
    J *= params.sq2a
    return J[:, 0] if x_in.ndim == 0 else J


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
