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
forward branch is shared: ``forward_sources`` forms its seed and sources from
one Laguerre recurrence, which ``psi_integral_all`` ladders in place and the
kernel evaluator of ``series`` contracts with the ladder's adjoint on its
weights (``contract``), taking the Laguerre functions' weighted sum from the
same recurrence.  The
backward sweep is seeded at the top order by one seed shared across the x
sorted by a stable argsort: the seed at an x is the seed at the x before it,
decayed by e^{b gap} <= 1, plus the integral over the short panel between
them.  Each panel is taken by Gauss-Legendre in the offset t = x - z, cut
where the kernel e^{bt} or the basis function drops below e^{-45}, with the
smaller node count of two rules (see ``_seed_panels``); a log-depth
scan runs the recurrence over x, and the contraction of the ladder then damps
the (~1e-15) seed error further.  So the value at one x depends at the
rounding level on the other x of the same call.  The sweep runs over chunks
of a bounded number of (x, node) and (x, order) pairs, so its memory does not
grow with the number of x beyond the output.  This keeps orders up to k = 64
stable in double precision, which a monomial expansion of L_k cannot do
(binomial cancellation).

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
    "laguerre_fn_all",
    "forward_sources",
    "contract",
    "psi_integral_all",
    "psi_db_from",
    "psi_integral_and_db_all",
    "psi_integral_db_all",
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


def _weighted_laguerre_all(kmax: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """M_k(x) = L_k(2 alpha x) e^{-alpha x} for k = 0..kmax; shape (kmax+1, *x.shape)."""
    out = np.empty((kmax + 1,) + x.shape, dtype=float)
    for k, row in enumerate(_laguerre_rows(kmax, 2.0 * alpha * x, np.exp(-alpha * x))):
        out[k] = row
    return out


def laguerre_fn_all(params: LaguerreParams, x, kmax: int | None = None) -> np.ndarray:
    """phi_{alpha,k}(x) for k = 0..kmax (default params.K); shape (kmax+1, *x.shape)."""
    kmax = params.K if kmax is None else kmax
    x = np.asarray(x, dtype=float)
    return params.sq2a * _weighted_laguerre_all(kmax, params.alpha, x)


def contract(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """weights^T rows over the first axis: shape (r, *rows.shape[1:]) for (n, r) weights.

    Column 0 goes through ``einsum`` (no BLAS), the others through one
    matrix product: a BLAS product rounds a column by its position, so this
    way column 0 has the same bits whatever columns come after it.
    """
    out = np.empty((weights.shape[1],) + rows.shape[1:])
    out[0] = np.einsum("k,k...->...", weights[:, 0], rows)
    if weights.shape[1] > 1:
        out[1:] = np.tensordot(weights[:, 1:], rows, axes=(0, 0))
    return out


def forward_sources(kmax: int, alpha: float, x, b: float, weights=None):
    """The forward ladder of J_{0..kmax}(x; b), b >= 0, in one buffer, from one Laguerre recurrence.

    Returns (S, WM): S of shape (kmax+1, *x.shape) holds J_0 = e^{bx} (1 -
    e^{-sx}) / s, s = alpha + b, in row 0 and the sources d_k = M_{k-1} - M_k
    in rows k = 1..kmax, so ``ladder(S[0], S[1:], s, 2 alpha - s, out=S)``
    overwrites it with J.  With (n, r) weights, n <= kmax + 1, WM =
    ``contract(weights, M_{0..n-1})`` is taken from the same rows before they
    become sources (the Laguerre functions phi_k = sqrt(2 alpha) M_k);
    otherwise WM is None.
    """
    x = np.asarray(x, dtype=float)
    S = _weighted_laguerre_all(kmax, alpha, x)
    WM = None if weights is None else contract(weights, S[: len(weights)])
    rows = S.reshape(kmax + 1, -1)  # a view, with 1-d rows also for a scalar x
    for k in range(kmax, 0, -1):
        np.subtract(rows[k - 1], rows[k], out=rows[k])
    s = alpha + b
    S[0] = np.exp(b * x) * (-np.expm1(-s * x)) / s
    return S, WM


# The backward seed neglects kernel and basis tails below e^{-_TAIL}.
_TAIL = 45.0
# Window-rule node counts are rounded up to a multiple of this, so few rules are cached.
_NODE_STEP = 8
# A seed panel's quadrature error bound, relative to its integrand (``_seed_panels``).
_PANEL_TOL = 1e-17
# Work units per chunk of the backward sweep, one per (x, node) and per
# (x, order) pair plus one per x: bounds its temporaries.
_CHUNK_PAIRS = 1 << 16


@lru_cache(maxsize=128)
def _gauss_legendre(n: int) -> np.ndarray:
    """Rows (1 + nodes, weights) of the n-node Gauss-Legendre rule on [-1, 1]; read-only."""
    u, wts = special.roots_legendre(n)
    rule = np.stack([1.0 + u, wts])
    rule.flags.writeable = False
    return rule


@lru_cache(maxsize=16)
def _panel_reach(nmax: int) -> np.ndarray:
    """For n = 1..nmax, the largest y with y^{2n} / (2n)! <= _PANEL_TOL; read-only."""
    two_n = 2.0 * np.arange(1, nmax + 1)
    reach = np.exp((math.log(_PANEL_TOL) + special.gammaln(two_n + 1.0)) / two_n)
    reach.flags.writeable = False
    return reach


def _seed_panels(kmax: int, alpha: float, x: np.ndarray, x_prev: float, b: float):
    """Per sorted x: gap, start t0, half-length h and node count n of its seed panel.

    The panel of x_i is [x_{i-1}, x_i], with x_prev before the first x and
    any x below 0 counted as 0.  It is taken in the offset t = x_i - z and
    cut where the kernel or the basis function drops below e^{-45}.  The
    kernel cut is t = 45/|b| (none for |b| <= 1e-12).  Since |L_K(s)| <=
    sum_j C(K, j) s^j / j! <= 5^K e^{s/4}, |M_K(z)| <= 5^K e^{-alpha z / 2},
    so z beyond (2/alpha)(45 + K ln 5) adds below (2/alpha) e^{-45}: the
    basis cut is t >= x - (2/alpha)(45 + K ln 5).  On [t0, t0 + 2h] the
    integrand is e^{bt} M_kmax(x - t), and n Gauss-Legendre nodes integrate
    degree 2n - 1 exactly (Trefethen 2008, SIAM Rev. 50), so n is the
    smaller of two rules:

    * long panels: e^{-alpha x} e^{(alpha + b) t} times a polynomial of
      degree kmax in t; mapped to [-1, 1] the exponential is e^{kappa u}
      with |kappa| <= (alpha + |b|) h, whose Chebyshev coefficients
      2 I_j(kappa) fall below eps relative to e^kappa before
      j = 2 kappa + 24, so n = ceil((kmax + 1)/2) + ceil((alpha + |b|) h)
      + 12, rounded up to a multiple of 8;
    * short panels: the integrand's derivatives grow at most like Lambda^j
      with Lambda = alpha (4 kmax + 3) + |b|, so the Taylor remainder past
      degree 2n - 1 is below (2 h Lambda)^{2n} / (2n)! <= 1e-17 of it; that
      n is one search in the table ``_panel_reach``.
    """
    gap = np.diff(np.maximum(x, 0.0), prepend=max(x_prev, 0.0))
    w = np.minimum(gap, _TAIL / -b) if b < -1e-12 else gap
    t0 = np.maximum(x - 2.0 * (_TAIL + kmax * math.log(5.0)) / alpha, 0.0)
    h = 0.5 * np.fmax(w - t0, 0.0)  # a NaN x gets an empty panel and a NaN seed
    n = (kmax + 2) // 2 + np.ceil((alpha - b) * h).astype(np.int64) + 12
    n = -(-n // _NODE_STEP) * _NODE_STEP
    lam = alpha * (4 * kmax + 3) - b
    short = np.searchsorted(_panel_reach(int(n.max())), 2.0 * h * lam) + 1
    return gap, t0, h, np.minimum(n, short)


def _affine_scan(a: np.ndarray, p: np.ndarray) -> None:
    """y_i = a_i y_{i-1} + p_i from y_{-1} = 0, in place: p becomes y, a the products.

    A Hillis-Steele scan: log2(len(a)) vector steps, each composing every map
    with the one d places before it.  With every a_i in [0, 1] no partial
    product or sum can overflow.
    """
    d = 1
    while d < len(a):
        p[d:] += a[d:] * p[:-d]
        a[d:] *= a[:-d]
        d *= 2


def _panel_nodes(x: np.ndarray, t0: np.ndarray, h: np.ndarray, n: np.ndarray, b: float):
    """z at the x then at every panel's nodes, end to end, and the nodes' w e^{bt}.

    The rules are gathered with one concatenation of the distinct node counts
    and one index, not one rule per x.
    """
    counts = np.flatnonzero(np.bincount(n))
    rules = np.concatenate([_gauss_legendre(c) for c in counts.tolist()], axis=1)
    # the c-node rule starts at column first[c] of rules, x i's nodes at starts[i]
    first = np.zeros(counts[-1] + 1, dtype=np.int64)
    first[counts] = np.cumsum(counts) - counts
    starts = np.cumsum(n) - n
    one_u, wts = rules[:, np.repeat(first[n] - starts, n) + np.arange(starts[-1] + n[-1])]
    owner = np.repeat(np.arange(len(x)), n)
    t = t0[owner] + h[owner] * one_u
    # an x below 0 has an empty panel, placed at z = 0 where M is finite
    return np.concatenate([x, np.maximum(x, 0.0)[owner] - t]), wts * np.exp(b * t)


def _backward_sweep(kmax: int, alpha: float, x: np.ndarray, b: float) -> np.ndarray:
    """J_k(x; b) for k = 0..kmax and b < 0, x 1-d; shape (kmax+1, len(x)).

    The backward ladder is seeded at kmax by J_kmax(x; b) =
    int_0^x e^{b(x-z)} M_kmax(z) dz.  Over x sorted by a stable argsort that
    seed obeys J(x_i) = e^{b (x_i - x_{i-1})} J(x_{i-1}) + P_i, with P_i the
    integral over the panel [x_{i-1}, x_i], taken by Gauss-Legendre in the
    offset t = x_i - z (``_seed_panels``), so its nodes stay distinct however
    far below the spacing of doubles at x the panel is.  A log-depth scan
    (``_affine_scan``) runs that recurrence; every factor is in [0, 1], so
    errors do not grow along it.  A seed is thus a sum over the panels of
    every smaller x of the call, and a value at x depends at the rounding
    level on the other x.  The sorted x are swept in chunks of at most
    ``_CHUNK_PAIRS`` (x, node) and (x, order) pairs, so the temporaries stay
    bounded whatever len(x) is; a chunk carries the last seed of the one
    before through the scan's products.  In a chunk the x and all their
    nodes share one flat array and one Laguerre recurrence: every row at the
    x (the ladder's sources), only the top row at the nodes.
    """
    J = np.empty((kmax + 1, len(x)))
    order = np.argsort(x, kind="stable")
    s = alpha + b
    lo, seed_before = 0, 0.0
    while lo < len(x):
        # every x costs its nodes plus kmax + 2, so a chunk takes at most
        # _CHUNK_PAIRS // (kmax + 3) x, and ends before the cost passes _CHUNK_PAIRS
        cols = order[lo : lo + max(_CHUNK_PAIRS // (kmax + 3), 1)]
        panels = _seed_panels(kmax, alpha, x[cols], x[order[lo - 1]] if lo else 0.0, b)
        cost = np.cumsum(panels[-1] + (kmax + 2))
        m = max(int(np.searchsorted(cost, _CHUNK_PAIRS, side="right")), 1)
        cols, (gap, t0, h, n) = cols[:m], (a[:m] for a in panels)
        z, wk = _panel_nodes(x[cols], t0, h, n, b)
        # row kmax - k takes M_k, then M_{k-1} - M_k once row k is formed: the
        # ladder's sources from the top down, which it overwrites in place
        y = np.empty((kmax + 1, m))
        for k, row in enumerate(_laguerre_rows(kmax, 2.0 * alpha * z, np.exp(-alpha * z))):
            y[kmax - k] = row[:m]
            if k:
                y[kmax - k + 1] -= row[:m]
        seed = h * np.add.reduceat(wk * row[m:], np.cumsum(n) - n)
        decay = np.exp(b * gap)
        _affine_scan(decay, seed)
        seed += decay * seed_before
        # the scan rounds by position, so equal x (gap 0) take the first one's seed
        seed = seed[np.maximum.accumulate(np.where(gap != 0.0, np.arange(m), 0))]
        J[:, cols] = ladder(seed, y[1:], 2.0 * alpha - s, s, out=y)[::-1]
        lo, seed_before = lo + m, seed[-1]
    return J


def ladder(
    y0, d: np.ndarray, diag: float, off: float, out: np.ndarray | None = None
) -> np.ndarray:
    """y_0 = y0 and y_k = (-off y_{k-1} + d_k) / diag for k = 1..len(d).

    The first-order recurrence diag y_k + off y_{k-1} = d_k, with d[k-1]
    holding d_k; shape (len(d)+1, *y0.shape).  Errors grow by |off / diag|
    per step, so a backward sweep passes its sources reversed.  ``out`` may
    be d's own buffer one row up (d is out[1:]): row k of d is read before
    row k of out is written.
    """
    y = np.empty((len(d) + 1,) + np.shape(y0)) if out is None else out
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
        # forward: amplification |a-b|/(a+b) <= 1, in the sources' buffer
        s = a + b
        J, _ = forward_sources(kmax, a, x, b)
        ladder(J[0], J[1:], s, 2.0 * a - s, out=J)
    else:
        # backward: contraction |a+b|/(a-b) < 1; quadrature seed at the top
        J = _backward_sweep(kmax, a, x.ravel(), b).reshape((kmax + 1,) + x.shape)
    J *= params.sq2a
    return J[:, 0] if x_in.ndim == 0 else J


def psi_db_from(psi: np.ndarray, x_psi: np.ndarray, alpha: float) -> np.ndarray:
    """d/db Psi_{alpha,k}(x; b) for k = 0..K from Psi_{0..K+1} and x Psi_{0..K}.

    d/db Psi_k = x Psi_k - int_0^x z e^{b(x-z)} phi_k(z) dz, and the three-term
    identity t L_k = (2k+1) L_k - (k+1) L_{k+1} - k L_{k-1} expresses the
    z-weighted integral through Psi_{k-1}, Psi_k, Psi_{k+1} (one order above K).
    The map is linear, so sums over x of its two inputs give the sum over x
    of the derivatives.
    """
    k = np.arange(len(psi) - 1.0).reshape((-1,) + (1,) * (psi.ndim - 1))
    zpsi = (2 * k + 1) * psi[:-1] - (k + 1) * psi[1:]
    zpsi[1:] -= k[1:] * psi[:-2]
    return x_psi - zpsi / (2.0 * alpha)


def psi_integral_and_db_all(params: LaguerreParams, x, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(Psi_{alpha,k}(x; b), d/db Psi_{alpha,k}(x; b)) for k = 0..K from one order-(K+1) sweep."""
    psi = psi_integral_all(params, x, b, kmax=params.K + 1)
    return psi[:-1], psi_db_from(psi, np.asarray(x, dtype=float) * psi[:-1], params.alpha)


def psi_integral_db_all(params: LaguerreParams, x, b: float) -> np.ndarray:
    """d/db Psi_{alpha,k}(x; b) for k = 0..K."""
    return psi_integral_and_db_all(params, x, b)[1]
