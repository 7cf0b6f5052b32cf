"""Safeguarded Newton solver for the saddlepoint equation K'(tau) = x0.

K is convex on its domain, so K'(t) - x0 is increasing and the root is
unique when x0 lies in the range of K'. The solve starts at
model.saddlepoint_start(x0): the root of the quadratic CGF by default,
the exact root for a model whose K' inverts in closed form (NIG,
Gaussian). Every solve checks the residual at the start and returns
there, with no iteration, when it meets the tolerance. Otherwise it
proceeds in two phases:

1. Bracket. Starting from 0 (whose residual sign is known) and the
   start, probe geometrically toward the root's side until the residual
   changes sign. K' diverges at domain endpoints, so a
   sign change must appear; if the probe saturates at an endpoint instead,
   x0 is outside the range of K' and the mean is unattainable, unless K'
   at the last float before the endpoint is already past x0: then the
   root exists but cannot be resolved in floating point.

2. Newton within the bracket. Steps that leave the domain are halved back
   inside; a proposal outside the bracket, a stalled residual (five
   non-decreasing iterations), or slow geometric progress (two consecutive
   reductions weaker than 4x) each trigger a bisection step. CGFs with
   double-exponential growth (compound Poisson) make plain Newton crawl
   back from an overshoot at O(1) step length, which is what the
   slow-progress trigger catches.

solve_saddlepoint_batch runs Newton over arrays from the same start, with
no bracket, taking K' and K'' from one model.k1_k2 call per step. A row
whose K' has overshot the target by more than the target's own distance
from the mean takes the Newton step on log K' (measured from K'(0))
instead, which covers the overshoot of an exponentially growing K' in a
few steps; a row whose K' or K'' overflows goes halfway back toward its
last iterate where both were finite. Rows that do not converge are
re-solved one at a time by the scalar solver. The batch returns K'' at
each root with the roots (SaddlepointBatch), so that its callers need
not evaluate it again.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._log import debug
from .cgf import CgfModel
from .errors import ConvergenceError, UnattainableMeanError

_STALL_LIMIT = 5
_SLOW_LIMIT = 2
_SLOW_RATIO = 0.25
_MAX_PROBES = 200


@dataclass(frozen=True)
class SaddlepointSolution:
    tau_hat: float
    k_at: float
    k2_at: float
    residual: float
    iterations: int


def _make_solution(model: CgfModel, t: float, r: float, iterations: int) -> SaddlepointSolution:
    return SaddlepointSolution(
        tau_hat=float(t),
        k_at=float(model.k(t)),
        k2_at=float(model.k2(t)),
        residual=float(r),
        iterations=iterations,
    )


def _next_probe(model: CgfModel, anchor: float, bound: float, x0: float, upward: bool) -> float:
    """Next bracket probe from anchor toward bound (a domain endpoint).

    When the step to a finite bound underflows, the residual at the last
    float before the bound decides: past x0 there, the root exists but
    cannot be resolved in floating point (ConvergenceError); otherwise
    K' saturates short of x0 (UnattainableMeanError).
    """
    if math.isfinite(bound):
        step = 0.5 * (bound - anchor)
        if abs(step) < 1e-13 * max(1.0, abs(bound)):
            r_last = float(model.k1(math.nextafter(bound, anchor))) - x0
            if r_last > 0.0 if upward else r_last < 0.0:
                raise ConvergenceError(
                    f"K' crosses x0={x0} within float resolution of the end of "
                    "the domain; the root cannot be resolved",
                    best=None,
                )
            raise UnattainableMeanError(
                f"K' saturates before reaching x0={x0}; mean unattainable"
            )
        return anchor + step
    if abs(anchor) > 1e15:
        raise UnattainableMeanError(
            f"K' saturates before reaching x0={x0}; mean unattainable"
        )
    step = max(1.0, abs(anchor))
    return anchor + step if upward else anchor - step


def solve_saddlepoint(
    model: CgfModel, x0: float, tol: float = 1e-10, max_iter: int = 100
) -> SaddlepointSolution:
    """Solve K'(tau_hat) = x0 to |residual| <= tol * max(1, |x0|)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _solve_scalar(model, x0, tol, max_iter)


def _solve_scalar(
    model: CgfModel, x0: float, tol: float, max_iter: int
) -> SaddlepointSolution:
    x0 = float(x0)
    dom = model.domain()
    scale = max(1.0, abs(x0))
    r0 = float(model.k1(0.0)) - x0
    if abs(r0) <= tol * scale:
        return _make_solution(model, 0.0, r0, 0)
    t = float(model.saddlepoint_start(x0))
    r = float(model.k1(t)) - x0
    if math.isfinite(r) and abs(r) <= tol * scale:
        return _make_solution(model, t, r, 0)

    below = 0.0 if r0 < 0.0 else None  # largest t seen with K'(t) < x0
    above = 0.0 if r0 > 0.0 else None  # smallest t seen with K'(t) > x0
    if not math.isnan(r):  # +-inf still carries a usable sign
        if r < 0.0:
            below = t if below is None else max(below, t)
        else:
            above = t if above is None else min(above, t)
    probes = 0
    while below is None or above is None:
        if probes >= _MAX_PROBES:
            raise ConvergenceError(
                f"could not bracket the saddlepoint for x0={x0}",
                best=_make_solution(model, t if dom.contains(t) else 0.0, r, 0),
            )
        missing_above = above is None
        anchor = below if missing_above else above
        cand = _next_probe(model, anchor, dom.hi if missing_above else dom.lo, x0, missing_above)
        rc = float(model.k1(cand)) - x0
        for _ in range(60):
            if not math.isnan(rc):
                break
            cand = 0.5 * (cand + anchor)
            rc = float(model.k1(cand)) - x0
        if math.isnan(rc):
            raise ConvergenceError(
                f"K' not evaluable while bracketing x0={x0}", best=None
            )
        if rc < 0.0:
            below = cand if below is None else max(below, cand)
        else:
            above = cand if above is None else min(above, cand)
        probes += 1

    if math.isnan(r) or not (below < t < above):
        t = 0.5 * (below + above)
        r = float(model.k1(t)) - x0
    stall = 0
    slow = 0
    for it in range(1, max_iter + 1):
        if math.isfinite(r) and abs(r) <= tol * scale:
            return _make_solution(model, t, r, it - 1)
        if not math.isnan(r):
            if r < 0.0:
                below = max(below, t)
            else:
                above = min(above, t)
        bisect = stall >= _STALL_LIMIT or slow >= _SLOW_LIMIT or not math.isfinite(r)
        if not bisect:
            step = -r / float(model.k2(t))
            t_new = t + step
            while not dom.contains(t_new):
                step *= 0.5
                t_new = t + step
            if not (below < t_new < above):
                bisect = True
        if bisect:
            t_new = 0.5 * (below + above)
        r_new = float(model.k1(t_new)) - x0
        if math.isfinite(r_new) and math.isfinite(r) and abs(r_new) < abs(r):
            stall = 0
        else:
            stall += 1
        if bisect or (math.isfinite(r_new) and abs(r_new) <= _SLOW_RATIO * abs(r)):
            slow = 0
        else:
            slow += 1
        t, r = t_new, r_new
    if math.isfinite(r) and abs(r) <= tol * scale:
        return _make_solution(model, t, r, max_iter)
    raise ConvergenceError(
        f"saddlepoint iteration did not converge for x0={x0} "
        f"(residual {r:.3e} after {max_iter} iterations)",
        best=_make_solution(model, t, r, max_iter),
    )


@dataclass(frozen=True)
class SaddlepointBatch:
    """What solve_saddlepoint_batch found, row by row, and how.

    k2 is K''(tau): from the solver's last evaluation for the rows it
    converged, from model.k2 for the rows the scalar solver re-solved.
    The counts are those of the DEBUG record.
    """

    tau: np.ndarray
    k2: np.ndarray
    iterations: int
    log_steps: int
    sent_back: int
    re_solved: int


def solve_saddlepoint_batch(
    model: CgfModel, x: np.ndarray, tol: float = 1e-10, max_iter: int = 100
) -> SaddlepointBatch:
    """Vectorized Newton across many x0 values, from one model.k1_k2 call per step.

    On a domain with a finite end, step halving keeps every iterate
    strictly inside it, so the model's vectorized k1_k2 is always called
    on valid points; on all of R, where every step taken is finite, there
    is nothing to check. A row
    whose K' has overshot the target by more than the target's distance
    from the mean (K'(t) - x0 > x0 - K'(0), in the direction of x0) gets
    the Newton step on log((K'(t) - K'(0)) / (x0 - K'(0))) = 0 instead,
    where that step is finite and keeps t on the root's side of 0; there
    it is always the longer step. Where K' grows like an exponential (the
    jump tails of compound Poisson CGFs), plain Newton crawls back from
    such an overshoot, and the step in log space covers it. A row whose K'
    or K'' is not finite (an overflow) is sent halfway back toward its
    last iterate where both were, or toward 0 if there was none. The
    residual is checked at every iterate, the last included; entries that
    have not met the tolerance after max_iter steps are re-solved one at
    a time with the safeguarded scalar solver. One DEBUG record per call
    gives the number of rows, the Newton iterations run, the row steps
    taken in log space, the row steps sent back from a non-finite K' or
    K'', and the rows re-solved; it is 0 iterations when every row's
    start meets the tolerance, as the exact NIG start does.
    """
    x = np.asarray(x, dtype=float)
    dom = model.domain()
    bounded = math.isfinite(dom.lo) or math.isfinite(dom.hi)

    def inside(t):
        ok = np.isfinite(t)
        if math.isfinite(dom.lo):
            ok &= t > dom.lo
        if math.isfinite(dom.hi):
            ok &= t < dom.hi
        return ok

    bound = tol * np.maximum(1.0, np.abs(x))
    mean = model.k1(0.0)
    y = x - mean  # the root lies on the side of 0 that y's sign gives
    t = model.saddlepoint_start(x)
    t_fin = np.zeros(x.shape)  # per row, the last iterate with finite K' and K''
    iterations = 0
    log_steps = 0
    sent_back = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while True:
            k1, k2 = model.k1_k2(t)
            r = k1 - x
            done = np.abs(r) <= bound
            if iterations == max_iter or done.all():
                break
            iterations += 1
            step = -r / k2
            # step * K'' is finite only where K' and K'' are, and K'' > 0
            fin = np.isfinite(step * k2)
            np.copyto(t_fin, t, where=fin)
            over = np.flatnonzero(r / y > 1.0)
            over = over[~done[over] & fin[over]]
            if over.size:
                u = k1[over] - mean
                s_log = -np.log(u / y[over]) * u / k2[over]
                # for u / y > 2, log(u / y) > 1 - y / u, so s_log is always
                # the longer step; it must stay on the root's side of 0
                take = np.isfinite(s_log) & ((t[over] + s_log) * y[over] > 0.0)
                step[over[take]] = s_log[take]
                log_steps += int(np.count_nonzero(take))
            if not fin.all():
                back = np.flatnonzero(~(fin | done))
                step[back] = 0.5 * (t_fin[back] - t[back])
                sent_back += back.size
            step[done] = 0.0
            t_new = t + step
            if bounded:
                ok = inside(t_new)
                for _ in range(80):
                    if ok.all():
                        break
                    step[~ok] *= 0.5
                    t_new = t + step
                    ok = inside(t_new)
                t_new = np.where(ok, t_new, t)
            t = t_new
    rest = np.flatnonzero(~done)
    debug(
        __name__,
        "saddlepoint of %d rows: %d Newton iterations, %d row steps in log space, "
        "%d sent back from a non-finite K' or K'', %d re-solved by the scalar solver",
        x.size, iterations, log_steps, sent_back, rest.size,
    )
    if rest.size:
        for i in rest:
            try:
                t[i] = solve_saddlepoint(model, float(x[i]), tol=tol, max_iter=max_iter).tau_hat
            except ConvergenceError as exc:
                raise type(exc)(f"observation {int(i)}: {exc}", best=exc.best) from exc
        k2[rest] = model.k2(t[rest])
    return SaddlepointBatch(t, k2, iterations, log_steps, sent_back, int(rest.size))
