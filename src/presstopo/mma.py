"""Method of Moving Asymptotes for unit-box designs with few constraints.

Each update builds the separable rational MMA approximation about adaptive
asymptotes and solves it through its dual: for fixed multipliers the primal
minimizer is closed-form per variable, and the dual (a concave function of at
most a handful of multipliers) is maximized by a damped, projected Newton
method to tight KKT tolerance.  Constraints carry a heavily penalized elastic
slack so subproblems remain well-posed when an iterate is infeasible beyond
the reach of one move-limited step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, OptimizerError

_ALBEFA = 0.1          # keep bounds strictly inside the asymptotes
_ASYMPTOTE_INIT = 0.5  # first two spans
_ASYMPTOTE_INCR = 1.2  # widen on monotone progress
_ASYMPTOTE_DECR = 0.7  # shrink on oscillation
_PENALTY = 1000.0      # weight of the elastic constraint slack
_DUAL_TOL = 1e-9       # KKT residual the dual Newton solve must reach
_GRAD_REG = 0.001      # fraction of |grad| mirrored to the opposite branch
_CURV_REG = 1e-3       # absolute curvature floor
_SPAN_MIN = 1e-8       # asymptote span clamps
_SPAN_MAX = 10.0
_DUAL_MAX_ITER = 500
_BOUND_TOL = 1e-12


@dataclass
class MmaState:
    """Optimizer state carried across iterations."""

    n_variables: int
    move_limit: float = 0.1
    lower_asymptotes: np.ndarray | None = None
    upper_asymptotes: np.ndarray | None = None
    x_prev: np.ndarray | None = None
    x_prev2: np.ndarray | None = None
    last_kkt_residual: float = field(default=np.nan)
    _dual_warm: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def for_variables(cls, n, move_limit=0.1):
        """State for n variables in the unit box."""
        return cls(n_variables=n, move_limit=move_limit)


def mma_update(x, f0, df0, g, dg, state: MmaState):
    """One MMA iteration; returns the new design point.

    Parameters follow the usual convention: ``g`` holds constraint values in
    feasible-form (g <= 0), ``dg`` is (m, n).  The step never exceeds the move
    limit per component and keeps every variable strictly between the updated
    asymptotes.
    """
    x = np.asarray(x, dtype=float)
    df0 = np.asarray(df0, dtype=float)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    n = x.size
    m = g.size
    dg = np.asarray(dg, dtype=float).reshape(m, n) if m else np.zeros((0, n))
    if df0.shape != (n,):
        raise InvalidArgumentError("objective gradient has wrong length")
    for name, value in (("objective", f0), ("objective gradient", df0),
                        ("constraint values", g), ("constraint gradients", dg)):
        if not np.all(np.isfinite(value)):
            raise InvalidArgumentError(f"{name} must be finite")
    if state.n_variables != n:
        raise InvalidArgumentError("state dimension does not match x")
    if np.any(x < -_BOUND_TOL) or np.any(x > 1.0 + _BOUND_TOL):
        raise InvalidArgumentError("x violates the variable bounds")
    for i in range(m):
        if g[i] > 0 and not np.any(dg[i]):
            raise OptimizerError(
                f"constraint {i} is violated but has an identically zero "
                "gradient; the subproblem is infeasible"
            )

    if state.x_prev2 is None:
        low = x - _ASYMPTOTE_INIT
        upp = x + _ASYMPTOTE_INIT
    else:
        osc = (x - state.x_prev) * (state.x_prev - state.x_prev2)
        factor = np.ones(n)
        factor[osc > 0] = _ASYMPTOTE_INCR
        factor[osc < 0] = _ASYMPTOTE_DECR
        low = x - factor * (state.x_prev - state.lower_asymptotes)
        upp = x + factor * (state.upper_asymptotes - state.x_prev)
        low = np.clip(low, x - _SPAN_MAX, x - _SPAN_MIN)
        upp = np.clip(upp, x + _SPAN_MIN, x + _SPAN_MAX)

    move = state.move_limit
    alfa = np.maximum(np.maximum(0.0, low + _ALBEFA * (x - low)), x - move)
    beta = np.minimum(np.minimum(1.0, upp - _ALBEFA * (upp - x)), x + move)

    ux = upp - x
    xl = x - low
    reg0 = _GRAD_REG * np.abs(df0) + _CURV_REG
    p0 = ux**2 * (np.maximum(df0, 0.0) + reg0)
    q0 = xl**2 * (np.maximum(-df0, 0.0) + reg0)
    if m:
        regc = _GRAD_REG * np.abs(dg) + _CURV_REG
        pc = ux[None, :] ** 2 * (np.maximum(dg, 0.0) + regc)
        qc = xl[None, :] ** 2 * (np.maximum(-dg, 0.0) + regc)
        b = pc @ (1.0 / ux) + qc @ (1.0 / xl) - g
        lam, x_new, kkt = _solve_dual(
            p0, q0, pc, qc, b, low, upp, alfa, beta, state._dual_warm
        )
        state._dual_warm = lam
    else:
        x_new = _primal_minimizer(p0, q0, low, upp, alfa, beta)
        kkt = 0.0

    x_new = np.clip(x_new, np.maximum(0.0, x - move),
                    np.minimum(1.0, x + move))
    state.last_kkt_residual = kkt
    state.lower_asymptotes = low
    state.upper_asymptotes = upp
    state.x_prev2 = state.x_prev
    state.x_prev = x.copy()
    return x_new


def _primal_minimizer(p, q, low, upp, alfa, beta):
    """Minimizer of sum p/(U-x) + q/(x-L) over the box [alfa, beta]."""
    sp = np.sqrt(p)
    sq = np.sqrt(q)
    x = (low * sp + upp * sq) / (sp + sq)
    return np.clip(x, alfa, beta)


def _solve_dual(p0, q0, pc, qc, b, low, upp, alfa, beta, warm):
    """Maximize the concave dual over lam >= 0 by damped projected Newton."""
    m = b.size
    if warm is not None and warm.shape == (m,):
        lam = np.clip(warm, 0.0, _PENALTY + 1.0)
    else:
        lam = np.zeros(m)

    def evaluate(lam):
        pt = p0 + lam @ pc
        qt = q0 + lam @ qc
        x = _primal_minimizer(pt, qt, low, upp, alfa, beta)
        ux = upp - x
        xl = x - low
        elastic = np.maximum(lam - _PENALTY, 0.0)
        value = (pt / ux + qt / xl).sum() - lam @ b - 0.5 * (elastic**2).sum()
        grad = pc @ (1.0 / ux) + qc @ (1.0 / xl) - b - elastic
        return value, grad, x, pt, qt

    value, grad, x, pt, qt = evaluate(lam)
    kkt = np.abs(lam - np.maximum(0.0, lam + grad)).max()
    for _ in range(_DUAL_MAX_ITER):
        if kkt < _DUAL_TOL:
            break
        ux = upp - x
        xl = x - low
        interior = (x > alfa) & (x < beta)
        dgdx = pc / ux[None, :] ** 2 - qc / xl[None, :] ** 2
        curv = 2.0 * pt / ux**3 + 2.0 * qt / xl**3
        cols = dgdx[:, interior] / np.sqrt(curv[interior])[None, :]
        hess = cols @ cols.T + np.diag((lam > _PENALTY).astype(float))
        # clamp multipliers that are at zero and want to decrease
        clamped = (lam <= 0.0) & (grad < 0.0)
        free = ~clamped
        step = np.zeros(m)
        if np.any(free):
            h_ff = hess[np.ix_(free, free)]
            h_ff = h_ff + np.eye(h_ff.shape[0]) * (
                1e-12 * max(1.0, np.abs(h_ff).max())
            )
            step[free] = np.linalg.solve(h_ff, grad[free])
            # a near-singular Hessian (all variables pinned at their bounds)
            # yields astronomically long steps; cap at the dual's live range
            cap = 10.0 * (_PENALTY + np.abs(lam).max() + 1.0)
            norm = np.abs(step).max()
            if norm > cap:
                step *= cap / norm
        if not np.any(step):
            break

        t = 1.0
        improved = False
        saturation = 1e-12 * (1.0 + abs(value))
        for _ in range(60):
            trial = np.maximum(0.0, lam + t * step)
            t_value, t_grad, t_x, t_pt, t_qt = evaluate(trial)
            t_kkt = np.abs(trial - np.maximum(0.0, trial + t_grad)).max()
            # near the optimum the dual value saturates in floating point;
            # accept on residual decrease alone only in that regime
            if t_value > value or (t_kkt < kkt and t_value >= value - saturation):
                lam, value, grad, x, pt, qt = trial, t_value, t_grad, t_x, t_pt, t_qt
                kkt = t_kkt
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    if kkt >= _DUAL_TOL:
        raise OptimizerError(
            f"dual Newton did not reach KKT residual {_DUAL_TOL:.1e} "
            f"(achieved {kkt:.3e})"
        )
    return lam, x, kkt
