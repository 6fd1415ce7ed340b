import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presstopo import InvalidArgumentError, OptimizerError
from presstopo.mma import _DUAL_TOL, MmaState, mma_update


def run_unconstrained(objective, gradient, x0, iterations):
    state = MmaState.for_variables(x0.size)
    x = x0.copy()
    for _ in range(iterations):
        x = mma_update(x, objective(x), gradient(x), np.zeros(0),
                       np.zeros((0, x.size)), state)
    return x, state


class TestAnalyticProblems:
    def test_separable_quadratic(self):
        n = 40
        x, _ = run_unconstrained(
            lambda x: ((x - 0.3) ** 2).sum(),
            lambda x: 2 * (x - 0.3),
            np.full(n, 0.5),
            iterations=30,
        )
        assert np.abs(x - 0.3).max() < 1e-6

    def test_single_linear_constraint(self):
        n = 50
        state = MmaState.for_variables(n)
        x = np.full(n, 0.2)
        for _ in range(100):
            g = np.array([x.mean() - 0.4])
            dg = np.full((1, n), 1.0 / n)
            x = mma_update(x, -x.mean(), np.full(n, -1.0 / n), g, dg, state)
        assert abs(x.mean() - 0.4) < 1e-6
        assert np.ptp(x) < 1e-9  # symmetric problem: all variables equal
        assert state.last_kkt_residual < 1e-9

    def test_constraint_from_violated_start(self):
        n = 30
        state = MmaState.for_variables(n)
        x = np.full(n, 0.9)  # strongly violated: mean must fall to 0.4
        for _ in range(60):
            g = np.array([x.mean() - 0.4])
            dg = np.full((1, n), 1.0 / n)
            x = mma_update(x, -x.mean(), np.full(n, -1.0 / n), g, dg, state)
        assert abs(x.mean() - 0.4) < 1e-6

    def test_two_constraints(self):
        # maximize x1-sum subject to both column means bounded
        n = 20
        state = MmaState.for_variables(2 * n)
        x = np.full(2 * n, 0.5)
        dg = np.zeros((2, 2 * n))
        dg[0, :n] = 1.0 / n
        dg[1, n:] = 1.0 / n
        for _ in range(80):
            g = np.array([x[:n].mean() - 0.3, x[n:].mean() - 0.6])
            df0 = -np.ones(2 * n) / n
            x = mma_update(x, -x.sum() / n, df0, g, dg, state)
        assert abs(x[:n].mean() - 0.3) < 1e-6
        assert abs(x[n:].mean() - 0.6) < 1e-6


class TestContracts:
    def test_move_limit_never_exceeded(self):
        n = 25
        state = MmaState.for_variables(n)
        rng = np.random.default_rng(0)
        x = np.full(n, 0.5)
        for _ in range(40):
            df0 = rng.normal(size=n) * 10 ** rng.uniform(-3, 3)
            g = np.array([x.mean() - 0.4])
            dg = np.full((1, n), 1.0 / n)
            x_new = mma_update(x, 0.0, df0, g, dg, state)
            assert np.abs(x_new - x).max() <= 0.1 + 1e-12
            x = x_new

    def test_iterates_stay_in_unit_box(self):
        n = 25
        state = MmaState.for_variables(n)
        rng = np.random.default_rng(1)
        x = np.full(n, 0.05)
        for _ in range(40):
            df0 = rng.normal(size=n)
            x = mma_update(x, 0.0, df0, np.zeros(0), np.zeros((0, n)), state)
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_asymptotes_bracket_iterate(self):
        n = 10
        state = MmaState.for_variables(n)
        x = np.full(n, 0.5)
        for _ in range(10):
            x = mma_update(x, 0.0, np.linspace(-1, 1, n), np.zeros(0),
                           np.zeros((0, n)), state)
            assert np.all(state.lower_asymptotes < x)
            assert np.all(state.upper_asymptotes > x)

    def test_kkt_residual_below_tolerance_each_step(self):
        n = 30
        state = MmaState.for_variables(n)
        rng = np.random.default_rng(2)
        x = np.full(n, 0.5)
        for _ in range(20):
            g = np.array([x.mean() - 0.4])
            dg = np.full((1, n), 1.0 / n)
            x = mma_update(x, 0.0, rng.normal(size=n), g, dg, state)
            assert state.last_kkt_residual < _DUAL_TOL

    def test_infeasible_zero_gradient_raises(self):
        n = 5
        state = MmaState.for_variables(n)
        with pytest.raises(OptimizerError):
            mma_update(np.full(n, 0.5), 0.0, np.zeros(n), np.array([0.3]),
                       np.zeros((1, n)), state)

    def test_out_of_bounds_input_rejected(self):
        n = 5
        state = MmaState.for_variables(n)
        with pytest.raises(InvalidArgumentError):
            mma_update(np.full(n, 1.5), 0.0, np.zeros(n), np.zeros(0),
                       np.zeros((0, n)), state)

    @pytest.mark.parametrize("bad", ["f0", "df0", "g", "dg"])
    def test_non_finite_inputs_rejected(self, bad):
        n = 5
        state = MmaState.for_variables(n)
        args = dict(f0=1.0, df0=np.ones(n), g=np.array([-0.1]),
                    dg=np.ones((1, n)))
        if bad == "f0":
            args["f0"] = np.nan
        else:
            args[bad].flat[0] = np.inf
        with pytest.raises(InvalidArgumentError, match="finite"):
            mma_update(np.full(n, 0.5), state=state, **args)
        assert state.x_prev is None and state.lower_asymptotes is None

    def test_state_rebuilt_from_iterates_takes_the_same_step(self):
        n = 12
        target = np.random.default_rng(3).uniform(0.0, 1.0, n)
        dg = np.full((1, n), 1.0 / n)

        def step(x, state):
            return mma_update(x, ((x - target) ** 2).sum(), 2 * (x - target),
                              np.array([x.mean() - 0.4]), dg, state)

        state = MmaState.for_variables(n)
        x = np.full(n, 0.5)
        for _ in range(4):
            x = step(x, state)
        rebuilt = MmaState(
            n, lower_asymptotes=state.lower_asymptotes,
            upper_asymptotes=state.upper_asymptotes, x_prev=state.x_prev,
            x_prev2=state.x_prev2, _dual_warm=state._dual_warm)
        assert np.array_equal(step(x, rebuilt), step(x, state))

    def test_dimension_mismatch_rejected(self):
        state = MmaState.for_variables(5)
        with pytest.raises(InvalidArgumentError):
            mma_update(np.full(5, 0.5), 0.0, np.zeros(4), np.zeros(0),
                       np.zeros((0, 5)), state)


class TestAsymptoteAdaptation:
    def test_oscillation_shrinks_span(self):
        n = 4
        state = MmaState.for_variables(n)
        x = np.full(n, 0.5)
        spans = []
        sign = 1.0
        for _ in range(8):
            # alternating gradient forces oscillation
            df0 = sign * np.ones(n)
            sign = -sign
            x = mma_update(x, 0.0, df0, np.zeros(0), np.zeros((0, n)), state)
            spans.append(
                (state.upper_asymptotes - state.lower_asymptotes).mean())
        # after the two init iterations the spans contract
        assert spans[-1] < spans[2]

    def test_monotone_direction_expands_span(self):
        n = 4
        state = MmaState.for_variables(n)
        x = np.full(n, 0.2)
        spans = []
        for _ in range(6):
            df0 = -np.ones(n)  # keep pushing up
            x = mma_update(x, 0.0, df0, np.zeros(0), np.zeros((0, n)), state)
            spans.append(
                (state.upper_asymptotes - state.lower_asymptotes).mean())
        assert spans[4] > spans[2]


class TestStepProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 60), st.integers(0, 3), st.floats(0.01, 1.0),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_steps_stay_in_box_and_move_limit(self, n, m, move, steps, seed):
        rng = np.random.default_rng(seed)
        state = MmaState.for_variables(n, move_limit=move)
        x = rng.uniform(0.0, 1.0, n)
        x[rng.uniform(size=n) < 0.2] = rng.integers(0, 2)  # bound-hugging
        for _ in range(steps):
            scale = 10.0 ** rng.uniform(-6, 3)
            df0 = scale * rng.normal(size=n)
            dg = rng.normal(size=(m, n))
            g = rng.normal(scale=0.5, size=m)
            x_new = mma_update(x, float(rng.normal()), df0, g, dg, state)
            assert np.all((x_new >= 0.0) & (x_new <= 1.0))
            # the clip to x +- move is exact up to the rounding of x + move
            assert np.abs(x_new - x).max() <= move + 4 * np.finfo(float).eps
            x = x_new
