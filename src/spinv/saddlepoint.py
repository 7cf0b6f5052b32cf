"""Safeguarded Newton solver for the saddlepoint equation K'(tau) = x0.

K is convex on its domain, so K'(t) - x0 is increasing and the root is
unique when x0 lies in the range of K'. The solve proceeds in two phases:

1. Bracket. Starting from 0 (whose residual sign is known) and the
   quadratic-CGF initial guess, probe geometrically toward the root's side
   until the residual changes sign. K' diverges at domain endpoints, so a
   sign change must appear; if the probe saturates at an endpoint instead,
   x0 is outside the range of K' and the mean is unattainable.

2. Newton within the bracket. Steps that leave the domain are halved back
   inside; a proposal outside the bracket, a stalled residual (five
   non-decreasing iterations), or slow geometric progress (two consecutive
   reductions weaker than 4x) each trigger a bisection step. CGFs with
   double-exponential growth (compound Poisson) make plain Newton crawl
   back from an overshoot at O(1) step length, which is what the
   slow-progress trigger catches.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _initial_guess(model: CgfModel, x0):
    """Quadratic-CGF start (x0 - K'(0)) / K''(0), elementwise, kept inside the domain."""
    dom = model.domain()
    t = (x0 - model.k1(0.0)) / model.k2(0.0)
    if math.isfinite(dom.lo) and math.isfinite(dom.hi):
        # keep the start away from the boundary singularities
        inset = 0.01 * (dom.hi - dom.lo)
        return np.clip(t, dom.lo + inset, dom.hi - inset)
    # half-bounded domains: 0.5 * bound is strictly interior since the
    # domain contains 0
    if math.isfinite(dom.hi):
        t = np.minimum(t, 0.5 * dom.hi)
    if math.isfinite(dom.lo):
        t = np.maximum(t, 0.5 * dom.lo)
    return t


def _next_probe(anchor: float, bound: float, x0: float, upward: bool) -> float:
    """Next bracket probe from anchor toward bound (a domain endpoint)."""
    if math.isfinite(bound):
        step = 0.5 * (bound - anchor)
        if abs(step) < 1e-13 * max(1.0, abs(bound)):
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
    t = float(_initial_guess(model, x0))
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
        cand = _next_probe(anchor, dom.hi if missing_above else dom.lo, x0, missing_above)
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


def solve_saddlepoint_batch(
    model: CgfModel, x: np.ndarray, tol: float = 1e-10, max_iter: int = 100
) -> np.ndarray:
    """Vectorized Newton across many x0 values; returns tau_hat array.

    All iterates are kept strictly inside the domain by step halving, so
    the model's vectorized k1/k2 are always called on valid points. Entries
    that have not met the tolerance after max_iter (rare: deep tilts with
    poor initial guesses) are re-solved one at a time with the safeguarded
    scalar solver.
    """
    x = np.asarray(x, dtype=float)
    dom = model.domain()
    scale = np.maximum(1.0, np.abs(x))
    t = _initial_guess(model, x)
    done = np.zeros(x.shape, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(max_iter):
            r = model.k1(t) - x
            done = np.isfinite(r) & (np.abs(r) <= tol * scale)
            if done.all():
                break
            step = np.where(done, 0.0, -r / model.k2(t))
            step = np.where(np.isfinite(step), step, 0.0)
            t_new = t + step
            for _ in range(80):
                bad = ~done & ~((t_new > dom.lo) & (t_new < dom.hi) & np.isfinite(t_new))
                if not bad.any():
                    break
                step = np.where(bad, 0.5 * step, step)
                t_new = t + step
            still_bad = ~((t_new > dom.lo) & (t_new < dom.hi) & np.isfinite(t_new))
            t = np.where(still_bad, t, t_new)
    if not done.all():
        for i in np.nonzero(~done)[0]:
            try:
                t[i] = solve_saddlepoint(model, float(x[i]), tol=tol, max_iter=max_iter).tau_hat
            except ConvergenceError as exc:
                raise type(exc)(f"observation {int(i)}: {exc}", best=exc.best) from exc
    return t
