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
backward on the reversed sources (diag = 2a - s, off = s) when b < 0.  Both
start from the rows M_k(x) = L_k(2 alpha x) e^{-alpha x}, k = 0..K, of one
three-term recurrence, which ``weighted_laguerre_all`` forms row by row inside
its (K+1, *x.shape) result: ``forward_sources`` turns them into the forward
seed and sources in place, and ``backward_seed`` takes the backward sweep's
top-order seed from them.  ``psi_integral_all`` ladders in that same array;
the kernel evaluator of ``series`` runs each sweep's adjoint on its weights,
both in one ``ladder`` call with per-column coefficients, and contracts the
result with the sources (``contract``).  The backward seed is shared
across the sorted x (the seed at an x is the one at the x before it,
decayed by e^{b gap} <= 1, plus the integral over the panel between them),
and a Taylor rule built from the rows at x takes each panel with no
quadrature nodes.  The ladder's contraction damps the (~1e-15) seed
error further; the value at one x depends at the rounding level on the
other x of the same call.  This keeps orders up to k = 64 stable in double
precision, which a monomial expansion of L_k cannot do (binomial
cancellation).

The degenerate regime b ~ -alpha (s ~ 0) needs no special casing: it falls in
the backward branch, which never divides by s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DomainError

__all__ = [
    "LaguerreParams",
    "laguerre_fn_all",
    "weighted_laguerre_all",
    "t_multiplier",
    "forward_sources",
    "backward_seed",
    "contract",
    "psi_integral_all",
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


def weighted_laguerre_all(kmax: int, alpha: float, x) -> np.ndarray:
    """M_k(x) = L_k(2 alpha x) e^{-alpha x} for k = 0..kmax; shape (kmax+1, *x.shape).

    (k+1) L_{k+1}(t) = (2k+1-t) L_k(t) - k L_{k-1}(t); the recurrence is
    linear, so the factor e^{-alpha x} carried from row 0 keeps the rows
    overflow-free.  Row k+1 is formed in place in the result from rows k and
    k-1, with k M_{k-1} in one scratch row.
    """
    x = np.asarray(x, dtype=float)
    t = 2.0 * alpha * x
    M = np.empty((kmax + 1,) + x.shape)
    M[0] = np.exp(-alpha * x)
    scratch = np.empty(x.shape)
    for k in range(kmax):
        row = M[k + 1, ...]  # a view, also for a scalar x
        np.subtract(2 * k + 1, t, out=row)
        row *= M[k]
        if k:
            np.multiply(M[k - 1], k, out=scratch)
            row -= scratch
            row /= k + 1
    return M


def laguerre_fn_all(params: LaguerreParams, x, kmax: int | None = None) -> np.ndarray:
    """phi_{alpha,k}(x) for k = 0..kmax (default params.K); shape (kmax+1, *x.shape)."""
    kmax = params.K if kmax is None else kmax
    return params.sq2a * weighted_laguerre_all(kmax, params.alpha, x)


@lru_cache(maxsize=64)
def t_multiplier(n: int) -> np.ndarray:
    """The (n+1, n) matrix Z with Z^T M_{0..n}(x) = t M_{0..n-1}(x), t = 2 alpha x (read-only).

    It is the three-term identity t L_k = (2k+1) L_k - (k+1) L_{k+1} - k L_{k-1}.
    Being linear in the rows, it carries over to any linear image of them:
    the z-weighted Psi integrals that d/db Psi needs, their sums over jumps,
    and, as Z U, the weights U applied to them.
    """
    k = np.arange(n + 1.0)
    Z = (np.diag(2 * k + 1) - np.diag(k[1:], -1) - np.diag(k[1:], 1))[:, :n]
    Z.flags.writeable = False
    return Z


def contract(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """weights^T rows over the first axis: shape (r, *rows.shape[1:]) for (n, r) weights.

    Column 0 goes through ``einsum`` (no BLAS), the others through one
    matrix product: a BLAS product rounds a column by its position, so this
    way column 0 has the same bits whatever columns come after it.  It is
    read as a contiguous copy, since for a single output einsum sums a
    strided vector in another order than a contiguous one.
    """
    out = np.empty((weights.shape[1],) + rows.shape[1:])
    out[0] = np.einsum("k,k...->...", np.ascontiguousarray(weights[:, 0]), rows)
    if weights.shape[1] > 1:
        out[1:] = np.tensordot(weights[:, 1:], rows, axes=(0, 0))
    return out


def forward_sources(rows: np.ndarray, alpha: float, x, b: float) -> np.ndarray:
    """The forward ladder of J_{0..kmax}(x; b), b >= 0, formed in place from the rows M_{0..kmax}(x).

    Returns rows, now holding J_0 = e^{bx} (1 - e^{-sx}) / s, s = alpha + b,
    in row 0 and the sources d_k = M_{k-1} - M_k in rows k = 1..kmax, so
    ``ladder(S[0], S[1:], s, 2 alpha - s, out=S)`` overwrites it with J.
    """
    # numpy reads the overlapping input as it was before the write
    np.subtract(rows[:-1], rows[1:], out=rows[1:])
    s = alpha + b
    rows[0] = np.exp(b * x) * (-np.expm1(-s * x)) / s
    return rows


# The backward seed neglects kernel and basis tails below e^{-_TAIL}.
_TAIL = 45.0
# Terms of the seed's Taylor rule, and its remainder bound relative to the
# integrand's (``_taylor_rule``).
_TAYLOR_TERMS = 16
_PANEL_TOL = 1e-17
# Work units per chunk of the backward seed, one per (point, row) pair: the
# points are the x and the seed's auxiliary stations, the rows the kmax + 1
# orders and the rule's terms.  Bounds its temporaries.
_CHUNK_PAIRS = 1 << 16


@lru_cache(maxsize=64)
def _taylor_rule(kmax: int, alpha: float, b: float) -> tuple[np.ndarray, float, float]:
    """The seed's Taylor rule at b < 0: its rows, the scale rho and its reach in rho h.

    A station z = x - t0 expands f(t) = e^{bt} M_kmax(x - t) over [t0, t0 + h].
    Since L_k' = -sum_{j<k} L_j (Abramowitz & Stegun 22.8.6), d/dt M(x - t) =
    alpha (I + 2N) M(x - t) with N the strictly lower all-ones matrix, so
    f^(j)(t0) = e^{b t0} e^T G^j M(z), e = e_kmax, G = (alpha + b) I + 2 alpha N,
    and

        int_0^h f(t0 + u) du = e^{b t0} h sum_j [e^T Gh^j M(z) / (j+1)!] (rho h)^j

    with Gh = G / rho and rho = |alpha + b| + 2 alpha max(kmax, 1) >= ||G||_inf,
    so nothing overflows for |b| up to 1e300.  The rows are e^T Gh^j / (j+1)!
    for j < n = _TAYLOR_TERMS (read-only).  As |M_k(z)| <= 1 for z >= 0
    (|L_k(s)| <= e^{s/2}, A&S 22.14.12) and e^{bt} <= 1, |f^(n)| <= rho^n
    ||e^T Gh^n||_1, so the remainder is below h (rho h)^n ||e^T Gh^n||_1 /
    (n+1)!; the reach is the rho h that puts it at _PANEL_TOL h.  The norm
    is taken of the computed row plus its rounding, at most n (kmax + 2) eps
    times e^T |Gh|^n 1 = sum_m C(n, m) C(kmax, m) |u|^(n-m) v^m.
    """
    n = _TAYLOR_TERMS
    rho = abs(alpha + b) + 2.0 * alpha * max(kmax, 1)
    u, v = (alpha + b) / rho, 2.0 * alpha / rho
    rows = np.empty((n, kmax + 1))
    row = np.zeros(kmax + 1)
    row[-1] = 1.0
    for j in range(n):
        rows[j] = row
        # row Gh = u row_i + v sum_{k>i} row_k; after the loop, e^T Gh^n
        row = (u - v) * row + v * np.cumsum(row[::-1])[::-1]
    rows /= np.cumprod(np.arange(1.0, n + 1.0))[:, None]
    rows.flags.writeable = False
    abs_row = sum(math.comb(n, m) * math.comb(kmax, m) * abs(u) ** (n - m) * v**m for m in range(n + 1))
    bound = float(np.abs(row).sum()) + n * (kmax + 2) * np.finfo(float).eps * abs_row
    # a zero bound (kmax = 0 at b = -alpha: a constant integrand) leaves the reach finite
    reach = math.exp((math.log(_PANEL_TOL) + math.lgamma(n + 2) - math.log(max(bound, 1e-300))) / n)
    return rows, rho, reach


def _taylor_values(taylor: np.ndarray, rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j (taylor_j . M) y^j per column M of rows: one matrix product, then Horner in y."""
    terms = taylor @ rows
    acc = terms[-1]
    for term in terms[-2::-1]:
        acc = acc * y + term
    return acc


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


def backward_seed(rows: np.ndarray, alpha: float, x: np.ndarray, b: float) -> np.ndarray:
    """J_kmax(x; b) = int_0^x e^{b(x-z)} M_kmax(z) dz for b < 0, x 1-d, from rows = M_{0..kmax}(x).

    Over the sorted x the seed obeys J(x_i) = e^{b (x_i - x_{i-1})}
    J(x_{i-1}) + P_i, with P_i the integral over the panel
    [x_{i-1}, x_i] (x below 0 counted as 0).  The panel is taken in the
    offset t = x_i - z and cut where the kernel or the basis function drops
    below e^{-45}: the kernel cut is t = 45/|b| (none for |b| <= 1e-12);
    since |L_K(s)| <= sum_j C(K, j) s^j / j! <= 5^K e^{s/4}, z beyond
    (2/alpha)(45 + K ln 5) adds below (2/alpha) e^{-45}, so the basis cut is
    t >= x - (2/alpha)(45 + K ln 5).  What is left is split into the fewest
    equal steps within the reach of the Taylor rule (``_taylor_rule``), each
    expanded at its station z = x_i - t; the station at t = 0 is x_i itself,
    whose rows the caller has, and the others (in the offset, so they stay
    distinct however far below the spacing of doubles at x the panel is)
    take one Laguerre recurrence per block.  A log-depth scan
    (``_affine_scan``) runs the recurrence over x; every factor is in [0, 1],
    so errors do not grow along it.  A seed is thus a sum over the panels of
    every smaller x, and depends at the rounding level on the other x.  The
    sorted x are taken in chunks of at most ``_CHUNK_PAIRS`` (point, row)
    pairs, so the temporaries stay bounded whatever len(x) is; a chunk
    carries the last seed of the one before through the scan's products.
    """
    kmax = len(rows) - 1
    taylor, rho, reach = _taylor_rule(kmax, alpha, b)
    unit = kmax + 2 + len(taylor)
    cap = max(_CHUNK_PAIRS // unit, 1)
    z_cut = 2.0 * (_TAIL + kmax * math.log(5.0)) / alpha
    seed = np.empty(len(x))
    # equal x take the first one's seed, so their order is free
    order = np.argsort(x)
    lo, seed_before = 0, 0.0
    while lo < len(x):
        cols = order[lo : lo + cap]
        xs = np.maximum(x[cols], 0.0)
        gap = np.diff(xs, prepend=max(x[order[lo - 1]], 0.0) if lo else 0.0)
        t0 = np.maximum(xs - z_cut, 0.0)
        w = np.minimum(gap, _TAIL / -b) if b < -1e-12 else gap
        y = np.fmax(w - t0, 0.0) * rho  # a NaN x gets an empty panel and a NaN seed
        n = np.ceil(y / reach).astype(np.int64)
        # x and auxiliary stations cost a unit each; a chunk ends before the
        # cost passes _CHUNK_PAIRS
        cost = np.cumsum((1 + n - (t0 == 0.0) * (n > 0)) * unit)
        m = max(int(np.searchsorted(cost, _CHUNK_PAIRS, side="right")), 1)
        cols, xs, gap, t0, y, n = cols[:m], xs[:m], gap[:m], t0[:m], y[:m], n[:m]
        y /= np.maximum(n, 1)
        h = y / rho
        # x_i's s-th station sits at t = t0_i + s h_i
        owner = np.repeat(np.arange(m), n)
        t = t0[owner] + (np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)) * h[owner]
        value = np.empty(len(owner))
        at_x = t == 0.0
        value[at_x] = _taylor_values(taylor, rows[:, cols[owner[at_x]]], y[owner[at_x]])
        aux = np.flatnonzero(~at_x)
        for blo in range(0, len(aux), cap):
            blk = aux[blo : blo + cap]
            z = xs[owner[blk]] - t[blk]
            value[blk] = _taylor_values(taylor, weighted_laguerre_all(kmax, alpha, z), y[owner[blk]])
        panel = h * np.bincount(owner, value * np.exp(b * t), minlength=m)
        panel[np.isinf(xs)] = np.nan  # as a +inf x's rows are
        decay = np.exp(b * gap)
        _affine_scan(decay, panel)
        panel += decay * seed_before
        # the scan rounds by position, so equal x (gap 0) take the first one's seed
        seed[cols] = panel[np.maximum.accumulate(np.where(gap != 0.0, np.arange(m), 0))]
        lo, seed_before = lo + m, seed[cols[-1]]
    return seed


def ladder(y0, d: np.ndarray, diag, off, out: np.ndarray | None = None) -> np.ndarray:
    """y_0 = y0 and y_k = (-off y_{k-1} + d_k) / diag for k = 1..len(d).

    The first-order recurrence diag y_k + off y_{k-1} = d_k, with d[k-1]
    holding d_k; shape (len(d)+1, *y0.shape).  diag and off are scalars or
    arrays that broadcast over y0's shape, one coefficient per column, so
    ladders of different coefficients run side by side in one call; each
    column has the bits of a scalar ladder on it alone.  Errors grow by
    |off / diag| per step, so a backward sweep passes its sources reversed.
    Each step goes through one scratch row and makes no temporaries.
    ``out`` may be d's own buffer one row up (d is out[1:]): row k of d is
    read before row k of out is written.
    """
    y = np.empty((len(d) + 1,) + np.shape(y0)) if out is None else out
    y[0] = y0
    neg_off = np.negative(off)
    scratch = np.empty(y.shape[1:])
    for k in range(1, len(y)):
        # y[k, ...] is a view also for a 1-d y, where y[k] is a copy
        np.multiply(neg_off, y[k - 1, ...], out=scratch)
        scratch += d[k - 1]
        np.divide(scratch, diag, out=y[k, ...])
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
    if b >= 0.0:
        # forward: amplification |a-b|/(a+b) <= 1, in the rows' buffer
        J = forward_sources(weighted_laguerre_all(kmax, a, x), a, x, b)
        ladder(J[0], J[1:], s, 2.0 * a - s, out=J)
    else:
        # backward: contraction |a+b|/(a-b) < 1 from the top order's seed, on
        # the reversed sources M_k - M_{k+1}, in the rows' buffer
        J = weighted_laguerre_all(kmax, a, x)
        rows, xf = J.reshape(kmax + 1, -1), x.ravel()
        seed = backward_seed(rows, a, xf, b)
        np.subtract(rows[:-1], rows[1:], out=rows[:-1])
        ladder(seed, rows[-2::-1], 2.0 * a - s, s, out=rows[::-1])
    J *= params.sq2a
    return J[:, 0] if x_in.ndim == 0 else J


def psi_integral_and_db_all(params: LaguerreParams, x, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(Psi_{alpha,k}(x; b), d/db Psi_{alpha,k}(x; b)) for k = 0..K from one order-(K+1) sweep.

    d/db Psi_k = x Psi_k - (Z^T Psi_{0..K+1})_k / (2 alpha), Z = ``t_multiplier(K + 1)``.
    """
    psi = psi_integral_all(params, x, b, kmax=params.K + 1)
    z_psi = np.tensordot(t_multiplier(params.K + 1), psi, axes=(0, 0)) / (2.0 * params.alpha)
    return psi[:-1], np.asarray(x, dtype=float) * psi[:-1] - z_psi


def psi_integral_db_all(params: LaguerreParams, x, b: float) -> np.ndarray:
    """d/db Psi_{alpha,k}(x; b) for k = 0..K."""
    return psi_integral_and_db_all(params, x, b)[1]
