"""Log-density evaluators: tilted inversion (SPI), SPA, and direct IFT.

All three share the decomposition

    log p(x0) = [K(tau) - tau*x0] + [-1/2 log K''(tau)] + log p_bar(0)

where p_bar is the density of the standardized tilted variable at zero.
SPI computes p_bar(0) by Fourier inversion of a CF that is Gaussian-like
near zero, by the trapezoid rule. SPA
replaces p_bar(0) with the standard normal value (2*pi)^{-1/2}, exact only
for Gaussians. Direct IFT inverts the raw characteristic function, whose
oscillatory integrand degrades in the tails; its result is clamped at
1e-14 before the log, reproducing that failure mode on purpose.

Every p_bar(0) comes from one batch core, p_bar_zero_batch, which marks
unusable rows instead of raising. Since x0 = K'(tau), p_bar(0) depends on
x0 only through the tilt, so the core fits log p_bar at a few Chebyshev
nodes in the tilt and reads every row off the fit (Battles & Trefethen
2004 for the stopping rule). Its nodes come from one table of the 257
points of the last level (_NODE_J), in the order the levels reach them,
and each level reads a stride of one array of log p_bar. The nodes'
lines are placed once for the levels up to _FIRST_PLACEMENT nodes, not
once a level, and then once for each deeper level reached; each level
sums only its own nodes (_interpolated). A batch the fit does not
serve (33 rows or fewer, an unusable node, a next level with more nodes
than rows, no convergence at 257 nodes) takes each row by itself, in
blocks. Each batch logs one DEBUG record saying which, with the nodes
summed and placed, the rule and its error indicators.

A node or row is taken by one line rule: the trapezoid rule on a vertical
line Re z = c over y >= 0, summing the one integrand
Re exp(K(c + iy) - K(c) - iy*x0) (cgf.line_integrand), and p_bar(0) is a
prefactor times that sum (_p_bar_zero_rows). A rule only places its
lines (_lines), each from its own row alone. The fixed rule (a
QuadratureSpec: [0, upper_limit] with n_points) takes the line through
the tilt, c = tau, at y = s/sqrt(K''(tau)), which is the standardized
tilted CF (standardized_tilted_cf), with one step and length for all
rows (_fixed_lines). The contour moves the line off the tilt, to where
K(c) - c*x0 is _BUDGET nats above its minimum, and sets each node's step
from the strip in which the integrand is analytic and its length from
where the CF has decayed (_contour_lines). The integrand
is analytic in a strip, where the trapezoid rule converges geometrically
as its step shrinks (Trefethen & Weideman 2014, SIAM Rev. 56:385);
moving the line off the saddlepoint widens the strip, which is the
optimal-contour idea of Lord & Kahl (2007, J. Comput. Finance 10(4)), so
that a few hundred points reach 1e-14 where a fixed rule is off by 0.07
nats or fails. SPI's rule is the caller's, else the model's own
(CgfModel.spi_quad); a model that states none takes the contour where its
CGF domain has a finite end, and DEFAULT_SPI_QUAD where it has none
(_spi_rule).

Direct IFT sums the same integrand on the one line c = 0 that every row
shares by Simpson's rule, (4 T_h - T_2h)/3, on DEFAULT_DIRECT_QUAD. A
fixed rule, SPI's or direct IFT's, takes its points and step from its
QuadratureSpec (grid). Every rule's points are summed in one loop over
blocks of rows (_row_sums) by one function (_even_odd) into one pair:
the sum over the even-indexed points less half the two ends, which is
T_2h / 2h, and the sum over the odd-indexed points, each over the row's
own points alone. The trapezoid rule, the SPI step error indicator (the
gap between T_h and T_2h) and Simpson's rule are each read off that
pair, so the point count stays odd for every method.

SPI and SPA differ in log p_bar(0) alone, and every evaluator of either
takes the terms and their sum from one expression (_solved_terms):
spi_log_density and spa_log_density take its row at the one-row solve of
solve_saddlepoint, and equal their row of log_density_terms bit for bit.
"""

import math

import numpy as np

from ._log import debug
from .cgf import (
    CgfModel, DomainInterval, Line, QuadratureSpec, finite_points, line_integrand, standardized_tilted_cf,
)
from .errors import InversionError, ValidationError
from .saddlepoint import solve_saddlepoint, solve_saddlepoint_batch

_DENSITY_FLOOR = 1e-14
_SPA_P_BAR = (2.0 * math.pi) ** -0.5
# integrand entries per block of every Fourier rule (_row_sums): a block
# stays in cache, and peak memory does not grow with the number of rows
_BLOCK_ENTRIES = 8192
# Chebyshev degrees of the nested fit levels (17, 33, 65, 129, 257 nodes),
# and the bound on its last-quarter coefficients, in nats of log p_bar
_FIT_DEGREES = (16, 32, 64, 128, 256)
_FIT_TOL = 1e-10
# every node's j on the last grid, cos(pi j/256), in the order the levels
# reach them: the first level's 17, then the odd multiples of each finer
# level's step, so the nodes of the first k levels are a prefix
_NODE_J = np.concatenate([np.arange(0, 257, 16), *(np.arange(256 // n, 256, 512 // n) for n in _FIT_DEGREES[1:])])
# the nodes the first level places (_interpolated): most batches stop by
# 65 nodes, and a deeper level places its own only when it is reached,
# since the decay probe (_decay_cut) grows with the nodes
_FIRST_PLACEMENT = 65
# a batch of fewer rows than this never tries the fit: it would need 17
# nodes, the cost of half its rows, before it could tell whether it pays
_FIT_MIN_ROWS = 34
# the contour rule (_contour_lines): its line lies where K(c) - cx is
# _BUDGET nats above its minimum, placed by _NEWTON_STEPS; its step
# leaves a discretisation error of exp(-_STRIP_NATS) in _STRIP_FRACTION
# of the strip of analyticity; it stops where exp(Re) falls below
# exp(_LOG_CUT), sought at _PROBES steps along the line, so that a line
# that needs more than 2^16 steps is unusable
_BUDGET = 2.0
_NEWTON_STEPS = 2
_STRIP_FRACTION = 0.95
_STRIP_NATS = 32.0
_LOG_CUT = math.log(1e-16)
_PROBES = 2.0 ** np.arange(17.0)


DEFAULT_SPI_QUAD = QuadratureSpec(100.0, 513)
DEFAULT_DIRECT_QUAD = QuadratureSpec(150.0, 513)


def _blocks(lengths: list):
    """Consecutive slices of the rows, whose point counts lengths ascend, of
    about _BLOCK_ENTRIES entries each when every row of a slice takes as
    many points as its last (at least one row a slice)."""
    lo = 0
    while lo < len(lengths):
        rows = min(max(1, _BLOCK_ENTRIES // lengths[lo]), len(lengths) - lo)
        # the first k rows take k * lengths[lo + k - 1] entries, which ascends with k
        while rows > 1 and rows * lengths[lo + rows - 1] > _BLOCK_ENTRIES:
            rows -= 1
        yield slice(lo, lo + rows)
        lo += rows


def _even_odd(vals: np.ndarray, n: np.ndarray):
    """(even, odd, last) of each row of vals over its own first n points.

    n is odd and ascends, and the last row takes all of its points. even
    is the sum over a row's even-indexed points less half its two ends,
    odd the sum over its odd-indexed points, and last its value at its
    last point. With step h, the trapezoid rule is h (even + odd), the
    trapezoid rule of step 2h is 2h even, and Simpson's rule is
    h (2 even + 4 odd) / 3. Plain sums rather than a product with the
    weights: numpy hands a matrix-vector product to BLAS, whose threads
    spin a second core for nothing on products this small.

    Each sum is np.add.reduceat over the row's own points alone, so it
    does not see the points past them or the other rows: a row by itself
    gives the same sums, to the bit. Where every row takes all of its
    points (every block of a fixed rule), each row is one segment along
    the row, which sums to the same bits with no index to build.
    """
    full = n[0] == vals.shape[1]
    last = vals[:, -1] if full else vals[np.arange(n.size), n - 1]
    sums = []
    for is_odd, part in enumerate((vals[:, ::2], vals[:, 1::2])):
        if full:
            # every row takes all of its points: one segment a row, from its start
            sums.append(np.add.reduceat(part, [0], axis=1)[:, 0])
            continue
        # row r's points start at r * width of the flattened part; the
        # segments between one row's last point and the next row are dropped
        starts = np.arange(n.size) * part.shape[1]
        idx = np.empty(2 * n.size - 1, dtype=np.intp)
        idx[0::2] = starts
        idx[1::2] = starts[:-1] + n[:-1] // 2 + 1 - is_odd
        sums.append(np.add.reduceat(part.ravel(), idx)[0::2])
    return sums[0] - 0.5 * (vals[:, 0] + last), sums[1], last


def _row_sums(n: np.ndarray, integrand):
    """(even, odd, last, entries) of each row's rule (_even_odd), in blocks of about _BLOCK_ENTRIES entries.

    n holds each row's point count, odd and ascending (see _blocks).
    integrand(b, m) is the real integrand of the rows in slice b at their
    first m points, one row each, with m the count of the block's last
    row; each row is summed over its own points alone, so its sums do not
    depend on the rows that share its block. entries counts the values
    taken. Every Fourier integral of the package is summed here.
    """
    lengths = n.tolist()
    even, odd, last = np.empty(n.size), np.empty(n.size), np.empty(n.size)
    entries = 0
    for b in _blocks(lengths):
        vals = integrand(b, lengths[b.stop - 1])
        entries += vals.size
        even[b], odd[b], last[b] = _even_odd(vals, n[b])
    return even, odd, last, entries


def _largest(vals: np.ndarray) -> float:
    """The largest of vals, NaN left out (0 when there is nothing else)."""
    return float(np.fmax.reduce(vals, initial=0.0))


def _spi_rule(model: CgfModel, quad: QuadratureSpec):
    """The SPI rule: quad, else the model's own (spi_quad), else None, the
    contour, where the CGF domain has a finite end, and DEFAULT_SPI_QUAD
    where it has none."""
    rule = model.spi_quad if quad is None else quad
    if rule is None:
        dom = model.domain()
        if not (math.isfinite(dom.lo) or math.isfinite(dom.hi)):
            return DEFAULT_SPI_QUAD
    return rule


def _lines(model: CgfModel, x, tau, k2, rule: QuadratureSpec):
    """The line of every row by rule, a fixed rule, or the contour where it is None (see _spi_rule).

    Every rule is the trapezoid rule on one vertical line Re z = c per
    row, over y >= 0. The rule places each row's line (_fixed_lines,
    _contour_lines), and returns (n, integrand, prefactor, h): each row's
    point count, 0 on a row it does not take, the integrand of rows r at
    their first m points, integrand(r, m), one row each, and each row's
    prefactor and step. A row's line depends on that row alone, so it is
    the same to the bit whatever rows are placed with it.
    """
    if rule is None:
        return _contour_lines(model, x, tau, k2)
    return _fixed_lines(model, x, tau, k2, rule)


def _p_bar_zero_rows(lines, rows: np.ndarray):
    """p_bar(0) at the given rows of placed lines (see _lines), in the order given.

    p_bar(0) is a row's prefactor times its trapezoid sum (_row_sums),
    and NaN on a row the rule does not take. The rows are summed in
    blocks in the order of their point counts.

    Returns (p_bar, indicators), where indicators are (step, truncation,
    points, most points of a row, smallest step of a row). step is the
    largest relative gap between the rule and the trapezoid rule on its
    even-indexed points (step 2h). Under geometric convergence that gap
    is about the error of the coarser rule, so it overstates the error of
    the rule itself. truncation is the largest |integrand| at the last
    point, where the rule cuts it off (it is 1 at the first).
    """
    n, integrand, prefactor, h = lines
    n = n[rows]
    taken = np.flatnonzero(n > 0)
    taken = taken[np.argsort(n[taken], kind="stable")]
    r, n = rows[taken], n[taken]
    p_bar = np.full(rows.size, np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        even, odd, last, entries = _row_sums(n, lambda b, m: integrand(r[b], m))
        fine = even + odd
        p_bar[taken] = prefactor[r] * fine
        step = np.abs(1.0 - 2.0 * even / fine)
    most, smallest = int(np.max(n, initial=0)), float(np.min(h[r], initial=math.inf))
    return p_bar, (_largest(step), _largest(np.abs(last)), entries, most, smallest)


def _merged(a, b):
    """The indicators of two sets of rows (see _p_bar_zero_rows) as those of one."""
    return max(a[0], b[0]), max(a[1], b[1]), a[2] + b[2], max(a[3], b[3]), min(a[4], b[4])


def _fixed_lines(model: CgfModel, x, tau, k2, quad: QuadratureSpec):
    """The lines of the fixed rule quad (see _lines): every row, on one grid.

    Each row's line runs through its tilt, c = tau, at the points s of
    [0, upper_limit], y = s/sqrt(K''(tau)): the standardized tilted CF,
    whose trapezoid rule with step h in s gives p_bar(0) with prefactor
    h/pi.
    """
    s, h = quad.grid()
    return (
        np.full(x.size, s.size),
        lambda r, m: standardized_tilted_cf(model, tau[r, None], k2[r, None], x[r, None], s),
        np.full(x.size, h / math.pi), np.full(x.size, h),
    )


def _contour_lines(model: CgfModel, x, tau, k2):
    """The contour's lines (see _lines): each row's own line, step and length.

    c moves from tau away from the nearer finite end of the domain, by
    Newton steps on K(c) - cx - (K(tau) - tau x) = _BUDGET from the
    quadratic guess, and no further than the middle of a domain with two
    finite ends, where the strip of analyticity is widest. The strip's
    half-width d is the distance from c to the nearest finite end. On the
    lines c +- a, a = _STRIP_FRACTION d, the integrand is at most
    exp(growth) times its value at y = 0, with growth the larger rise of
    K(z) - zx from c to c +- a, so the trapezoid rule of step
    h = 2 pi a / (_STRIP_NATS + growth) in y is off by about
    exp(-_STRIP_NATS) (Trefethen & Weideman 2014, SIAM Rev. 56:385).

    On the line Re z = c,

        p(x) = exp(K(c) - cx) / pi * integral over y > 0 of line_integrand,

    so p_bar(0) = p(x) exp(tau x - K(tau)) sqrt(K''(tau)) is exp(gap)
    sqrt(K''(tau)) h / pi times the trapezoid sum at y = h j, with gap
    K(c) - cx less its value at tau, exact for any tau. Each row's rule
    runs from y = 0 to where exp(Re) falls below exp(_LOG_CUT) (see
    _decay_cut). A row whose integrand does not decay that far within
    2^16 steps, or whose gap is not finite, is not taken.
    """
    dom = model.domain()
    lo, hi = dom.lo, dom.hi
    if math.isfinite(lo) and math.isfinite(hi):
        mid = 0.5 * (lo + hi)
        sign, lower, upper = np.where(tau > mid, -1.0, 1.0), np.fmin(tau, mid), np.fmax(tau, mid)
    elif math.isfinite(hi):
        sign, lower, upper = -1.0, -np.inf, tau
    else:
        sign, lower, upper = 1.0, tau, np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.fmin(np.fmax(tau + sign * np.sqrt(2.0 * _BUDGET / k2), lower), upper)
        k_tau, k_c = np.asarray(model.k(np.concatenate([tau, c])), dtype=float).reshape(2, -1)
        at_tau = k_tau - tau * x
        for i in range(_NEWTON_STEPS):
            gap = k_c - c * x - at_tau
            c = np.fmin(np.fmax(c - (gap - _BUDGET) / (model.k1(c) - x), lower), upper)
            if i + 1 < _NEWTON_STEPS:
                k_c = np.asarray(model.k(c), dtype=float)
    # K on the last line and on its strip's edges, in one call
    a = _STRIP_FRACTION * np.fmin(c - lo, hi - c)
    k_c, k_lo, k_hi = np.asarray(model.k(np.concatenate([c, c - a, c + a])), dtype=float).reshape(3, -1)
    growth = np.maximum(k_lo + a * x, k_hi - a * x) - k_c
    h = 2.0 * math.pi * a / (_STRIP_NATS + np.maximum(growth, 0.0))
    gap = k_c - c * x - at_tau
    n = np.zeros(x.size, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        cut = np.ceil(_decay_cut(model, c, h)) + 1.0
        taken = np.isfinite(cut) & np.isfinite(gap)
        n[taken] = cut[taken].astype(np.int64) | 1
        prefactor = np.exp(gap) * np.sqrt(k2) / math.pi * h
    return (
        n,
        lambda r, m: line_integrand(model, c[r, None], x[r, None], h[r, None] * np.arange(float(m))),
        prefactor, h,
    )


def _decay_cut(model: CgfModel, c, h):
    """How many steps h along each line Re z = c take exp(Re) below
    exp(_LOG_CUT), NaN where the last of _PROBES does not.

    Re is probed at y = h * _PROBES, a factor 2 apart, and the cut found
    by linear interpolation of log(-Re) in log y between the last probe
    above it and the first below: exact where -Re is a power of y, as in
    the Gaussian core (y^2) or an exponential tail (y).
    """
    re = model.k_complex(Line(c[:, None], h[:, None] * _PROBES))[0]
    below = re < _LOG_CUT
    j = np.argmax(below, axis=1)
    i = np.arange(c.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        above = np.log(-re[i, j - 1])
        w = (math.log(-_LOG_CUT) - above) / (np.log(-re[i, j]) - above)
        cut = _PROBES[j] * 2.0 ** (np.clip(w, 0.0, 1.0) - 1.0)
    cut = np.where((j > 0) & np.isfinite(cut), cut, _PROBES[j])
    return np.where(below[i, j], cut, np.nan)


def _tilt_map(dom: DomainInterval):
    """(to_v, from_v): the tilt to the fit variable v and back.

    v = log((tau - lo)/(hi - tau)) on a domain with two finite ends,
    log(hi - tau) or -log(tau - lo) with one, and tau itself with none;
    each v runs over the whole real line as tau crosses the domain.
    """
    lo, hi = dom.lo, dom.hi
    if math.isfinite(lo) and math.isfinite(hi):
        return (
            lambda t: np.log((t - lo) / (hi - t)),
            lambda v: lo + (hi - lo) / (1.0 + np.exp(-v)),
        )
    if math.isfinite(hi):
        return lambda t: np.log(hi - t), lambda v: hi - np.exp(v)
    if math.isfinite(lo):
        return lambda t: -np.log(t - lo), lambda v: lo + np.exp(-v)
    return (lambda t: t), (lambda v: v)


def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through vals at cos(pi j/n), j = 0..n (a DCT-I)."""
    n = vals.size - 1
    c = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / n
    c[0] *= 0.5
    c[n] *= 0.5
    return c


def _clenshaw(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k c[k] T_k(t) by Clenshaw's recurrence, in three buffers of t's shape."""
    t2 = 2.0 * t
    b0, b1, b2 = np.empty_like(t), np.zeros_like(t), np.zeros_like(t)
    for ck in c[:0:-1]:
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += ck
        b0, b1, b2 = b2, b0, b1
    return c[0] + t * b1 - b2


def _read_fit(model: CgfModel, tau, k2, residual, c, to_v, a: float, b: float) -> np.ndarray:
    """log p_bar at each row from the fit c of log p_bar(0) over v in [a, b].

    k2 is K''(tau) and residual K'(tau) - x, row by row, from the solver.

    The solver's tau leaves a residual x - K'(tau), so the per-row rule
    takes the standardized tilted density at z = (x - K'(tau))/sqrt(K''(tau))
    rather than at 0. p(x) is the same whichever tilt takes it, so that
    density is p_bar(0) at the exact tilt tau_x, one Newton step from tau,
    times sqrt(K''(tau)/K''(tau_x)) exp(-z^2/2); z is of the order of the
    solver's tolerance, and the last factor is dropped. Reading the fit
    there keeps the residual, up to 1e-8 nats, out of each row and keeps
    the likelihood smooth in the parameters.
    """
    tau_x = tau - residual / k2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = _clenshaw(c, (2.0 * to_v(tau_x) - a - b) / (b - a))
        log_p += 0.5 * np.log(k2 / np.asarray(model.k2(tau_x), dtype=float))
    return log_p


def _interpolated(
    model: CgfModel, tau: np.ndarray, k2: np.ndarray, residual: np.ndarray, rule: QuadratureSpec
):
    """p_bar(0) of every row from a Chebyshev fit of log p_bar over the tilt, each node by rule.

    The nodes are read from one table, _NODE_J, in the order the levels
    reach them, and log p_bar is kept at every j of the last grid, so
    level n fits log_p[::256 // n]. The first level places the nodes of
    the levels up to _FIRST_PLACEMENT nodes that the rows allow, and each
    deeper level its own when reached: one tilt each, one k1_k2 and one
    _lines over all of them. Every level sums only its own nodes. For k a
    power of 2, pi j/256 rounds as pi (j/k)/(256/k) does, so a node's
    tilt, line and p_bar are the same to the bit on any grid and in any
    placement.

    Returns (fit, nodes summed, nodes placed, largest last-quarter
    coefficient, why the fit was not used). fit is None, or (p_bar,
    indicators) as _p_bar_zero_rows returns them, with the indicators
    over the nodes.
    """
    nodes, placed, tail, seen = 0, 0, math.nan, (0.0, 0.0, 0, 0, math.inf)
    if tau.size < _FIT_MIN_ROWS:
        return None, nodes, placed, tail, "too few rows"
    to_v, from_v = _tilt_map(model.domain())
    with np.errstate(divide="ignore", invalid="ignore"):
        v = to_v(tau)
    a, b = float(v.min()), float(v.max())
    if not (math.isfinite(a) and math.isfinite(b)):
        return None, nodes, placed, tail, "tilt not inside the domain"
    if not b > a:
        return None, nodes, placed, tail, "all rows share one tilt"
    # the nodes of the first placement: the levels up to _FIRST_PLACEMENT nodes that the rows allow
    first = max(n + 1 for n in _FIT_DEGREES if n < min(_FIRST_PLACEMENT, tau.size))
    log_p = np.empty(_NODE_J.size)
    for n in _FIT_DEGREES:
        # a level with more nodes than rows costs more than the rows
        if n >= tau.size:
            return None, nodes, placed, tail, "too few rows"
        if placed <= n:
            start, j = placed, _NODE_J[placed:max(n + 1, first)]
            tau_j = from_v(0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * j / 256))
            x_j, k2_j = model.k1_k2(tau_j)
            lines = _lines(model, x_j, tau_j, k2_j, rule)
            placed += tau_j.size
        rows = np.arange(nodes, n + 1) - start
        p_j, seen_j = _p_bar_zero_rows(lines, rows)
        seen = _merged(seen, seen_j)
        bad = np.flatnonzero(~_usable(p_j))
        if bad.size:
            return None, n + 1, placed, tail, f"unusable node at tau = {float(tau_j[rows[bad[0]]])!r}"
        log_p[_NODE_J[nodes:n + 1]] = np.log(p_j)
        nodes = n + 1
        c = _cheb_coeffs(log_p[::256 // n])
        tail = float(np.abs(c[-(c.size // 4):]).max())
        if tail <= _FIT_TOL:
            p_bar = np.exp(_read_fit(model, tau, k2, residual, c, to_v, a, b))
            return (p_bar, seen), nodes, placed, tail, None
    return None, nodes, placed, tail, f"{nodes} nodes not converged"


def p_bar_zero_batch(model: CgfModel, x, tau, k2, residual, quad: QuadratureSpec) -> np.ndarray:
    """p_bar(0) at each point x with solved saddlepoint tau: the batch core.

    k2 is K''(tau) and residual K'(tau) - x, as the solver leaves them.
    The rule is quad, else the model's own (see _spi_rule): the fixed
    trapezoid rule on the line through the tilt, or the contour, with its
    own line, step and length per node or row (see _p_bar_zero_rows).

    p_bar(0) depends on x only through tau, since x = K'(tau), so a batch
    samples one smooth function of the tilt. The core interpolates log
    p_bar in the mapped tilt v (see _tilt_map) at Chebyshev points of the
    second kind on [min v, max v] of the batch: 17, then 33, 65, 129 and
    257, each level reusing the values of the last, placed and summed as
    _interpolated says. Each node is taken by the rule at x = K'(tau_node),
    with K'' from the same k1_k2 call. Once the last quarter of a level's
    Chebyshev coefficients is at most _FIT_TOL, every row is read off the
    fit, with the solver's residual taken into account (see _read_fit).

    Each row runs the rule by itself instead when a node is unusable,
    257 nodes do not converge, the next level would need more nodes than
    there are rows, the batch has 33 rows or fewer, or all rows share one
    tilt.

    One DEBUG record per batch gives the rule, the path, the nodes summed
    and the nodes placed, the points taken in all, the most on one line,
    the smallest step, the last-quarter coefficient size and the rule's
    two error indicators (see _p_bar_zero_rows), over the nodes summed
    or, on the per-row path, over the rows: the step error, the largest
    relative gap to the rule of twice the step, and the truncation, the
    largest |integrand| where the rule stops.

    Nothing is raised for a bad row: a p_bar(0) that is not finite or not
    positive is returned as it is, and each caller decides what to do
    with it (see p_bar_error).
    """
    rule = _spi_rule(model, quad)
    fit, nodes, placed, tail, reason = _interpolated(model, tau, k2, residual, rule)
    p_bar, (step, trunc, points, most, h) = (
        fit if fit is not None else _p_bar_zero_rows(_lines(model, x, tau, k2, rule), np.arange(x.size))
    )
    debug(
        __name__,
        "p_bar(0) of %d rows by %s: %s after %d nodes (%d placed), %d points, at most %d a line, "
        "smallest step %.3g, last-quarter coefficients %.1e, step error %.1e, truncation %.1e",
        x.size,
        f"the contour {_BUDGET:g} nats above the tilt" if rule is None
        else f"the rule on [0, {rule.upper_limit:g}] of {rule.n_points} points",
        "interpolated" if reason is None else f"per row ({reason})",
        nodes, placed, points, most, h, tail, step, trunc,
    )
    return p_bar


def _usable(p_bar):
    """Whether each p_bar(0) is usable: finite and positive."""
    return np.isfinite(p_bar) & (p_bar > 0.0)


def p_bar_error(p_bar: float, where: str, quad: QuadratureSpec = None):
    """Why a p_bar(0) value is unusable, or None when it is usable (see _usable).

    quad is the rule the caller gave: with none, the model's own rule is
    at fault, not a spec.
    """
    if _usable(p_bar):
        return None
    if quad is None:
        rule = "the model's SPI rule cannot resolve it"
    else:
        rule = "quadrature spec inadequate for this model"
    if not math.isfinite(p_bar):
        return f"p_bar(0) is not finite {where}: the CF overflows or decays too slowly; {rule}"
    return f"p_bar(0) = {p_bar:.3e} is not positive {where}; {rule}"


def _solved_terms(model: CgfModel, x, tau, k2, residual, method: str, quad: QuadratureSpec):
    """(log_density, tilt_term, jacobian_term, log_p_bar, p_bar) over solved rows.

    tau, k2 and residual are the solver's root, K''(tau) and K'(tau) - x.
    SPA's p_bar(0) is the scalar (2 pi)^{-1/2}, which broadcasts over the
    rows; SPI's comes from the core by quad, else by the model's own rule
    (see _spi_rule), bad rows included (see p_bar_error).
    """
    tilt_term = np.asarray(model.k(tau), dtype=float) - tau * x
    jacobian_term = -0.5 * np.log(k2)
    if method == "spa":
        p_bar = _SPA_P_BAR
    else:
        p_bar = p_bar_zero_batch(model, x, tau, k2, residual, quad)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p_bar = np.log(p_bar)
    return tilt_term + jacobian_term + log_p_bar, tilt_term, jacobian_term, log_p_bar, p_bar


def log_density_terms(
    model: CgfModel, x: np.ndarray, method: str = "spi", quad: QuadratureSpec = None
):
    """(log_density, tilt_term, jacobian_term, log_p_bar, p_bar, sp) over x, from one batch pass.

    method "spa" takes p_bar(0) = (2 pi)^{-1/2}; "spi" takes it from the
    core, bad rows included. sp is the SaddlepointBatch: where a row's
    solve failed, its five values are NaN and sp.error(i) says why.
    Nothing is raised for a bad row; other x (see cgf.finite_points) and
    any other method raise ValidationError.
    """
    if method not in ("spi", "spa"):
        raise ValidationError(f"unknown method {method!r}")
    x = finite_points(x)
    sp = solve_saddlepoint_batch(model, x)
    solved = sp.reason == 0
    terms = np.full((5, x.size), np.nan)
    if solved.any():
        rows = (v[solved] for v in (x, sp.tau, sp.k2, sp.residual))
        for row, v in zip(terms, _solved_terms(model, *rows, method, quad)):
            row[solved] = v
    return (*terms, sp)


def _log_densities(model: CgfModel, x: np.ndarray, method: str, quad: QuadratureSpec):
    """The log-density at every point of x, from one batch pass, or the first row's error.

    Raises ValidationError for other x (see cgf.finite_points), the error
    of the first point whose saddlepoint solve failed, before any
    quadrature, else InversionError for the first point whose p_bar(0) is
    unusable.
    """
    x = finite_points(x)
    sp = solve_saddlepoint_batch(model, x)
    sp.raise_first_failure()
    log_density, *_, p_bar = _solved_terms(model, x, sp.tau, sp.k2, sp.residual, method, quad)
    bad = np.flatnonzero(~_usable(p_bar))
    if bad.size:
        i = int(bad[0])
        raise InversionError(p_bar_error(p_bar[i], f"for observation {i} (x = {x[i]})", quad))
    return log_density


def spi_log_density_batch(
    model: CgfModel, x: np.ndarray, quad: QuadratureSpec = None
) -> np.ndarray:
    """SPI log-density over many points of one model, in one batch pass (see _log_densities)."""
    return _log_densities(model, x, "spi", quad)


def spa_log_density_batch(model: CgfModel, x: np.ndarray) -> np.ndarray:
    """SPA log-density over many points of one model, in one batch pass (see _log_densities)."""
    return _log_densities(model, x, "spa", None)


def _log_density_row(model: CgfModel, x0: float, method: str, quad: QuadratureSpec) -> float:
    """The log-density at x0: one row of _solved_terms, at the saddlepoint solve_saddlepoint finds."""
    x0 = float(x0)
    sp = solve_saddlepoint(model, x0)
    log_density, *_, p_bar = _solved_terms(model, sp.x, sp.tau, sp.k2, sp.residual, method, quad)
    error = p_bar_error(float(np.ravel(p_bar)[0]), f"at x0 = {x0}", quad)
    if error:
        raise InversionError(error)
    return float(log_density[0])


def spi_log_density(model: CgfModel, x0: float, quad: QuadratureSpec = None) -> float:
    """Saddlepoint-adjusted inversion at one point: exact up to quadrature error."""
    return _log_density_row(model, x0, "spi", quad)


def spa_log_density(model: CgfModel, x0: float) -> float:
    """Classical saddlepoint approximation at one point; no quadrature involved."""
    return _log_density_row(model, x0, "spa", None)


def direct_ift_log_density_batch(
    model: CgfModel, x: np.ndarray, quad: QuadratureSpec = None
) -> np.ndarray:
    """Plain Fourier inversion, no tilting, over a 1-d array of finite points; floored at 1e-14.

    Raises InversionError for the first row whose sum is not finite.
    """
    if quad is None:
        quad = DEFAULT_DIRECT_QUAD
    x = finite_points(x)
    s, h = quad.grid()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        even, odd, _, _ = _row_sums(
            np.full(x.size, s.size), lambda b, m: line_integrand(model, 0.0, x[b, None], s)
        )
        p = h / 3.0 * (2.0 * even + 4.0 * odd) / math.pi
    if not np.isfinite(p).all():
        i = int(np.flatnonzero(~np.isfinite(p))[0])
        raise InversionError(f"direct IFT sum is not finite for observation {i} (x = {x[i]}): the CF overflows")
    return np.log(np.maximum(_DENSITY_FLOOR, p))
