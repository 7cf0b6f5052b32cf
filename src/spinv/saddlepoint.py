"""Safeguarded Newton solver for the saddlepoint equation K'(tau) = x0, over arrays.

K is convex on its domain, so K'(t) - x0 is increasing and the root is
unique when x0 lies in the range of K'. solve_saddlepoint_batch starts
every row at model.saddlepoint_start(x) (the exact root for NIG and
Gaussian) and checks the residual at every iterate, the start included.

1. Newton. The solve takes K'(0) and K''(0) from one model.k1_k2 call,
   and each iteration K' and K'' at its iterates from one more. A
   row whose K' has overshot the target by more than the target's own
   distance from the mean takes the Newton step on log K' (measured from
   K'(0)) instead, which covers the overshoot of an exponentially growing
   K' (compound Poisson jumps) in a few steps.
2. Guard. A row whose step is not finite, would leave the domain, or did
   not halve |residual| is guarded from then on: it holds a bracket from
   the signs of its residuals (0 on the mean's side, the end of the
   domain on the other), steps toward an open end, and in a closed
   bracket bisects wherever the Newton step does not land inside (_Guard).
3. Failure. A row that cannot finish gets NaN tau and K'' and a reason:
   not converged (_MAX_ITER iterations ran out), unattainable (K'
   saturates short of x0), or unresolvable (K' crosses x0 within float
   resolution: the row's bracket no longer splits, or K' at the last
   float before a finite end of the domain is already past x0). The
   batch never raises for a row; SaddlepointBatch.error(i) builds its
   exception, and solve_saddlepoint, a one-row view, raises it.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._log import debug
from .cgf import CgfModel
from .errors import ConvergenceError, DomainError, UnattainableMeanError

# SaddlepointBatch.reason codes; 0 is a solved row
NOT_CONVERGED, UNATTAINABLE, UNRESOLVABLE = 1, 2, 3
# the residual tolerance, relative to max(1, |x|), and the iteration budget
_TOL = 1e-10
_MAX_ITER = 100


@dataclass(frozen=True)
class SaddlepointSolution:
    tau_hat: float
    k2_at: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class SaddlepointBatch:
    """What solve_saddlepoint_batch found, row by row, and how.

    tau is the root and k2 is K''(tau), from the solver's last
    evaluation; both are NaN where the row failed. residual is K'(t) - x
    at each row's last iterate, and reason is 0 for a solved row, else
    NOT_CONVERGED, UNATTAINABLE or UNRESOLVABLE. The counts are those of
    the DEBUG record.
    """

    x: np.ndarray
    tau: np.ndarray
    k2: np.ndarray
    residual: np.ndarray
    reason: np.ndarray
    iterations: int
    log_steps: int
    guarded: int
    bisections: int

    def error(self, i: int):
        """The exception of row i, or None where the row was solved."""
        x0 = float(self.x[i])
        reason = self.reason[i]
        if reason == NOT_CONVERGED:
            return ConvergenceError(
                f"saddlepoint iteration did not converge for x0={x0} "
                f"(residual {float(self.residual[i]):.3e} after {_MAX_ITER} iterations)"
            )
        if reason == UNATTAINABLE:
            return UnattainableMeanError(f"K' saturates before reaching x0={x0}; mean unattainable")
        if reason == UNRESOLVABLE:
            return ConvergenceError(
                f"K' crosses x0={x0} within float resolution; the root cannot be resolved "
                f"(residual {float(self.residual[i]):.3e})"
            )
        return None

    def raise_first_failure(self):
        """Raise the exception of the first failed row, naming its observation index."""
        if self.reason.any():
            i = int(np.flatnonzero(self.reason)[0])
            raise type(self.error(i))(f"observation {i}: {self.error(i)}")


def solve_saddlepoint(model: CgfModel, x0: float) -> SaddlepointSolution:
    """Solve K'(tau_hat) = x0 to |residual| <= _TOL * max(1, |x0|).

    One row of solve_saddlepoint_batch; raises the row's exception where
    it failed.
    """
    sp = solve_saddlepoint_batch(model, np.array([float(x0)]))
    exc = sp.error(0)
    if exc is not None:
        raise exc
    tau, k2, residual = float(sp.tau[0]), float(sp.k2[0]), float(sp.residual[0])
    return SaddlepointSolution(tau, k2, residual, sp.iterations)


class _Guard:
    """The brackets of the guarded rows, and their steps.

    Arrays span the batch; rows holds the guarded rows still iterating.
    Where y = x - K'(0) > 0 the root lies up from 0: lo starts at 0 and hi
    at the domain's upper end, and the other way round where y <= 0. A
    residual that is not a number counts as past the root.

    A bracket is open, its far end still the domain's, until a residual
    past the root is seen. Until then the row steps toward the far end:
    halfway to a finite end, max(1, |t|) toward an infinite one, failing
    once |t| passes 1e15 or the step falls below float resolution. A row
    that took a step before it was guarded takes the Newton step instead
    where that goes further. A bracket that closes sends the row to its
    midpoint. In a closed bracket the row takes the Newton step where that
    lands strictly inside the bracket, and bisects otherwise.
    """

    def __init__(self, model, x, y):
        dom = model.domain()
        self.model, self.x = model, x
        self.up = y > 0.0
        self.lo = np.where(self.up, 0.0, dom.lo)
        self.hi = np.where(self.up, dom.hi, 0.0)
        self.closed = np.zeros(x.shape, dtype=bool)
        self.stepped = np.zeros(x.shape, dtype=bool)  # guarded past the first iteration
        self.reason = np.zeros(x.shape, dtype=np.uint8)
        self.rows = np.empty(0, dtype=np.intp)
        self.guarded = 0
        self.bisections = 0

    def step(self, t, r, step, t_new, done, new, first):
        """Write the next iterates of the guarded rows into t_new.

        step holds the Newton (or log) steps from t. new are the rows that
        leave plain Newton at this iteration, the first if first is true.
        """
        new = np.setdiff1d(new, self.rows, assume_unique=True)
        self.guarded += new.size
        self.stepped[new] = not first
        g = np.union1d(self.rows, new)
        g = g[~done[g]]
        tg, rg, up = t[g], r[g], self.up[g]
        # narrow each bracket by the sign of the residual here
        past = np.where(up, ~(rg <= 0.0), ~(rg >= 0.0))
        short = np.where(up, rg < 0.0, rg > 0.0)
        lo = np.where(np.where(up, short, past), np.maximum(self.lo[g], tg), self.lo[g])
        hi = np.where(np.where(up, past, short), np.minimum(self.hi[g], tg), self.hi[g])
        was_closed = self.closed[g]
        closed = was_closed | past
        self.lo[g], self.hi[g], self.closed[g] = lo, hi, closed
        near, far = np.where(up, lo, hi), np.where(up, hi, lo)
        half = 0.5 * (far - near)
        infinite = np.isinf(far)
        away = np.copysign(np.maximum(1.0, np.abs(near)), far)
        probe = np.where(infinite, near + away, near + half)
        q = tg + step[g]
        newton = np.where(
            closed,
            was_closed & (lo < q) & (q < hi),
            self.stepped[g] & np.where(up, (probe < q) & (q < far), (far < q) & (q < probe)),
        )
        p = np.where(newton, q, np.where(closed, 0.5 * (lo + hi), probe))
        probing = ~closed & ~newton
        reason = np.where(probing & infinite & (np.abs(near) > 1e15), UNATTAINABLE, 0)
        # toward the domain's finite end, once the step is below float
        # resolution, K' at the last float before the end decides
        tiny = np.flatnonzero(
            probing & ~infinite & (np.abs(half) < 1e-13 * np.maximum(1.0, np.abs(far)))
        )
        if tiny.size:
            r_last = self._k1_at_end(far[tiny], near[tiny]) - self.x[g[tiny]]
            crossed = np.where(up[tiny], r_last > 0.0, r_last < 0.0)
            reason[tiny] = np.where(crossed, UNRESOLVABLE, UNATTAINABLE)
        # a step that no longer moves the row leaves it where it is: the
        # root lies between two adjacent floats
        reason[(reason == 0) & (p == tg)] = UNRESOLVABLE
        fail = reason > 0
        self.bisections += int(np.count_nonzero(~newton & ~fail))
        t_new[g] = np.where(fail, tg, p)
        self.reason[g] = reason
        self.rows = g[~fail]

    def _k1_at_end(self, far, near):
        """K' at the last float before each end far, toward near, at which
        the model takes it.

        Rounding can fail a model's own domain test a float or two inside
        the end (NIG's D(t) rounds to 0 there), and k1 raises for its whole
        argument, so each row steps back alone. K' was taken at near.
        """
        k1 = np.empty(far.shape)
        for i, t in enumerate(np.nextafter(far, near)):
            while True:
                try:
                    k1[i] = self.model.k1(t)
                    break
                except DomainError:
                    t = np.nextafter(t, near[i])
        return k1


def solve_saddlepoint_batch(model: CgfModel, x: np.ndarray) -> SaddlepointBatch:
    """Solve K'(tau) = x row by row, from one model.k1_k2 call per iteration.

    A row is solved once |K'(tau) - x| <= _TOL * max(1, |x|), and fails
    as not converged where _MAX_ITER iterations leave it short of that. A
    row's log step (module docstring) is taken where K'(t) - x0 >
    x0 - K'(0) in the direction of x0, the step on
    log((K'(t) - K'(0)) / (x0 - K'(0))) = 0 is finite and it keeps t on
    the root's side of 0; there it is always the longer step. Guarded
    rows stay strictly inside the domain, so k1_k2 is only ever called
    on valid points. One DEBUG record per call gives the rows, the
    iterations (0 when every start meets the tolerance, as the exact NIG
    start does), the row steps in log space, the rows guarded, their
    steps other than Newton's, and the failed rows by reason.
    """
    x = np.asarray(x, dtype=float)
    dom = model.domain()
    bounded = math.isfinite(dom.lo) or math.isfinite(dom.hi)
    bound = _TOL * np.maximum(1.0, np.abs(x))
    mean, variance = model.k1_k2(0.0)
    y = x - mean  # the root lies on the side of 0 that y's sign gives
    t = model.saddlepoint_start(x, mean, variance)
    a_half = np.inf  # per row, half of |residual| at the last iterate
    guard = None
    iterations = 0
    log_steps = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while True:
            k1, k2 = model.k1_k2(t)
            nr = x - k1  # minus the residual
            a = np.abs(nr)
            done = a <= bound
            if guard is not None:
                done |= guard.reason > 0
            finished = done.all()
            if finished or iterations == _MAX_ITER:
                break
            iterations += 1
            step = nr / k2
            # step * K'' is finite only where K' and K'' are, and K'' > 0
            good = np.isfinite(step * k2)
            over = np.flatnonzero(nr / y < -1.0)
            over = over[~done[over] & good[over]]
            if over.size:
                u = k1[over] - mean
                s_log = -np.log(u / y[over]) * u / k2[over]
                # for u / y > 2, log(u / y) > 1 - y / u, so s_log is always
                # the longer step; it must stay on the root's side of 0
                take = np.isfinite(s_log) & ((t[over] + s_log) * y[over] > 0.0)
                step[over[take]] = s_log[take]
                log_steps += int(np.count_nonzero(take))
            np.putmask(step, done, 0.0)
            t_new = t + step
            good &= a <= a_half
            if bounded:
                good &= dom.contains(t_new)
            good |= done
            if guard is not None or not good.all():
                if guard is None:
                    guard = _Guard(model, x, y)
                guard.step(t, -nr, step, t_new, done, np.flatnonzero(~good), iterations == 1)
            t = t_new
            a *= 0.5
            a_half = a
    reason = np.zeros(x.shape, dtype=np.uint8) if guard is None else guard.reason
    counts = (0, 0, 0)
    if not finished or guard is not None:
        reason[~done] = NOT_CONVERGED
        counts = np.bincount(reason, minlength=4)[1:]
        failed = reason > 0
        t = np.where(failed, np.nan, t)
        k2 = np.where(failed, np.nan, k2)
    guarded, bisections = (0, 0) if guard is None else (guard.guarded, guard.bisections)
    debug(
        __name__,
        "saddlepoint of %d rows: %d iterations, %d row steps in log space, %d rows guarded, "
        "%d bisections, failed: %d not converged, %d unattainable, %d unresolvable",
        x.size, iterations, log_steps, guarded, bisections, *counts,
    )
    return SaddlepointBatch(x, t, k2, -nr, reason, iterations, log_steps, guarded, bisections)
