import copy
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradient_oracle
import gram_oracle
from fuzzyblock.cli import atomic_write_text
from fuzzyblock.surrogate.dataset import NormalizationRecord
from fuzzyblock.surrogate.model import (
    _W_TINY,
    TrainingError,
    TskModel,
    bell_membership,
    damage_map,
    extract_rules,
    forward_batch,
    init_model,
    load_model,
    lse_consequents,
    mf_labels,
    model_from_dict,
    model_json_text,
    model_to_dict,
    normal_equations,
    premise_gradients,
    premise_state,
    rmse,
    train,
)


def grid_2d(n=11):
    g = np.linspace(-1, 1, n)
    gx, gy = np.meshgrid(g, g)
    return np.column_stack([gx.ravel(), gy.ravel()])


def sinc(v):
    with np.errstate(invalid="ignore"):
        return np.where(np.abs(v) < 1e-12, 1.0, np.sin(np.pi * v) / (np.pi * v))


class TestInit:
    def test_structural_counts(self):
        X = np.linspace(-1, 1, 20).reshape(-1, 2)
        m = init_model(2, 2, X)
        assert m.rule_count == 4
        assert m.consequents.size == 12

    def test_rule_count_power(self):
        X = np.zeros((10, 5)) + np.linspace(-1, 1, 10).reshape(-1, 1)
        m = init_model(5, 3, X)
        assert m.rule_count == 243

    def test_centers_equispaced(self):
        X = np.array([[-1.0], [1.0]])
        m = init_model(1, 3, X)
        assert np.allclose(m.mf_params[0][:, 0], [-1, 0, 1])
        assert np.allclose(m.mf_params[0][:, 1], 0.5)
        assert np.allclose(m.mf_params[0][:, 2], 2.0)

    def test_rule_explosion_rejected(self):
        X = np.zeros((4, 5)) + np.linspace(0, 1, 4).reshape(-1, 1)
        with pytest.raises(ValueError, match="rule"):
            init_model(5, 5, X)

    def test_min_mfs(self):
        with pytest.raises(ValueError):
            init_model(1, 1, np.array([[0.0], [1.0]]))


class TestForward:
    def test_single_rule_linear(self):
        m = TskModel([np.array([[0.0, 1.0, 2.0]])], np.array([[2.0, 1.0]]), ("x1",))
        y, wbar = forward_batch(m, [[3.0]])
        assert y == pytest.approx([7.0])
        assert wbar[0] == pytest.approx([1.0])

    def test_symmetric_two_rule_midpoint(self):
        m = TskModel(
            [np.array([[-1.0, 1.0, 2.0], [1.0, 1.0, 2.0]])],
            np.array([[0.0, 2.0], [0.0, 4.0]]),
            ("x1",),
        )
        y, wbar = forward_batch(m, [[0.0]])
        assert wbar[0] == pytest.approx([0.5, 0.5])
        assert y == pytest.approx([3.0])

    def test_normalized_strengths_sum_to_one(self):
        rng = np.random.Generator(np.random.Philox(3))
        X = rng.uniform(-1, 1, size=(100, 2))
        m = init_model(2, 3, X)
        wbar = premise_state(m, X).wbar
        assert np.allclose(wbar.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_checked(self):
        m = init_model(2, 2, np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            forward_batch(m, [[1.0]])

    def test_underflow_fallback_uniform(self):
        m = TskModel([np.array([[0.0, 1e-6, 40.0], [0.1, 1e-6, 40.0]])],
                     np.array([[1.0, 0.0], [2.0, 0.0]]), ("x1",))
        wbar = premise_state(m, np.array([[1e8]])).wbar
        assert np.allclose(wbar, 0.5)


class TestTrain:
    def test_exactly_representable_one_epoch(self):
        X = np.linspace(-1, 1, 21).reshape(-1, 1)
        y = 2 * X[:, 0] + 1
        model, history = train(init_model(1, 2, X), X, y, epochs=1)
        assert history[0] < 1e-6

    def test_smooth_target_converges(self):
        X = grid_2d(11)
        y = sinc(1.5 * X[:, 0]) * sinc(1.5 * X[:, 1])
        model, history = train(init_model(2, 3, X), X, y, epochs=100)
        assert len(history) == 100
        assert history[-1] < 0.05

    @pytest.mark.parametrize("ridge", [None, 0.01])
    def test_shared_strengths_match_three_evaluation_loop(self, ridge):
        rng = np.random.Generator(np.random.Philox(11))
        X = rng.uniform(-1, 1, size=(60, 3))
        y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2]
        start = init_model(3, 2, X)
        model, history = train(start, X, y, epochs=8, learn_rate=0.05, ridge=ridge)
        ref, ref_history = gradient_oracle.train(start, X, y, 8, 0.05, ridge)
        assert history == ref_history
        assert model_json_text(model) == model_json_text(ref)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.lists(st.integers(2, 4), min_size=1, max_size=3),
                  st.just([2, 2, 2, 8, 2])),
        st.integers(2, 200),
        st.booleans(),
        st.sampled_from([None, 0.01]),
        st.sampled_from([0.01, 0.3]),
    )
    def test_train_matches_loop_reference(self, seed, counts, n_rows, masked, ridge, lr):
        model, X, y = self.random_model(seed, counts, n_rows, masked)
        ref, ref_history = gradient_oracle.train(model, X, y, 3, lr, ridge)
        if not np.all(np.isfinite(ref_history)):
            with pytest.raises(TrainingError):
                train(model, X, y, epochs=3, learn_rate=lr, ridge=ridge)
            return
        got, history = train(model, X, y, epochs=3, learn_rate=lr, ridge=ridge)
        assert history == ref_history
        assert model_json_text(got) == model_json_text(ref)

    def test_one_lse_and_one_gradient_call_per_epoch(self, monkeypatch):
        # the benchmark's per-layer metrics wrap these module globals and read
        # the model and X from the first two positional arguments
        from fuzzyblock.surrogate import model as model_module

        rng = np.random.Generator(np.random.Philox(17))
        X = rng.uniform(-1, 1, size=(30, 2))
        y = np.sin(X[:, 0]) + X[:, 1]
        calls = {"lse_consequents": [], "premise_gradients": []}
        for name, log in calls.items():
            def counted(*args, _f=getattr(model_module, name), _log=log, **kwargs):
                _log.append(args)
                return _f(*args, **kwargs)
            monkeypatch.setattr(model_module, name, counted)
        train(init_model(2, 2, X), X, y, epochs=7, ridge=0.01)
        for log in calls.values():
            assert len(log) == 7
            assert all(isinstance(a[0], TskModel) and a[1] is X for a in log)

    def test_ridge_solution_matches_explicit_gram(self):
        # the Gram matrix that normal_equations returns, solved in full; its
        # values are checked against exact arithmetic in TestNormalEquations
        rng = np.random.Generator(np.random.Philox(5))
        X = rng.uniform(-1, 1, size=(50, 2))
        y = np.cos(3 * X[:, 0]) * X[:, 1]
        m = init_model(2, 3, X)
        gram, rhs = normal_equations(m, X, y)
        gram = gram + 0.01 * np.eye(len(gram))
        expected = np.linalg.solve(gram, rhs).reshape(m.consequents.shape)
        assert lse_consequents(m, X, y, 0.01).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, cols", [(50, 27), (283, 96), (2000, 768)])
    def test_gram_is_exactly_symmetric(self, rows, cols):
        # lse_consequents solves through gram.T, which is the same matrix only
        # while normal_equations gathers mirrored entries from one value
        counts = {27: [3, 3], 96: [2, 3, 4], 768: [2, 2, 2, 8, 2]}[cols]
        model, X, y = self.random_model(rows, counts, rows, masked=True)
        gram, _ = normal_equations(model, X, y)
        assert gram.shape == (cols, cols)
        assert np.array_equal(gram, gram.T)

    def test_train_memory_at_benchmark_shape(self, monkeypatch):
        # N = 1600 samples on the paper's grid: R = 128 rules, P = 768
        # consequents.  train holds the Gram layout's int32 index and one
        # premise state (the (N, R) raw and normalized strengths); the
        # consequent pass adds the Gram matrix, and pair products, distinct
        # values and chunk products under 2.5 MB; the gradient pass adds
        # four (N, R) grids and (N, sum k_i) slopes under 4 MB.  LAPACK's
        # copy of the Gram matrix is not traced.  The design matrix phi
        # (N, P) would add 9.8 MB to either pass.
        from fuzzyblock.surrogate import model as model_module

        rng = np.random.Generator(np.random.Philox(3))
        N, counts = 1600, [2, 2, 2, 8, 2]
        X = rng.uniform(-1, 1, size=(N, len(counts)))
        y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 3]
        model = init_model(len(counts), counts, X)
        R, P = model.rule_count, model.consequents.size
        grid, gram, index, design = N * R * 8, P * P * 8, P * P * 4, N * P * 8
        tracemalloc.start()
        try:
            train(model, X, y, epochs=2, ridge=0.01)
            peak = tracemalloc.get_traced_memory()[1]
            lse_peaks = []

            def traced(*args, _f=model_module.lse_consequents, **kwargs):
                tracemalloc.reset_peak()
                result = _f(*args, **kwargs)
                lse_peaks.append(tracemalloc.get_traced_memory()[1])
                return result

            monkeypatch.setattr(model_module, "lse_consequents", traced)
            train(model, X, y, epochs=2, ridge=0.01)
        finally:
            tracemalloc.stop()
        assert max(lse_peaks) <= index + 2 * grid + gram + 2.5e6 < index + 2 * grid + design
        assert peak <= index + 6 * grid + 4e6 < index + 2 * grid + design + gram

    def test_underflowed_membership_is_left_alone(self):
        # b = 50 and a centre 1e7 away from every input: |z|^(2b) overflows, so
        # the MF's membership is 0 on every row and its gradient must be 0
        rng = np.random.Generator(np.random.Philox(13))
        X = rng.uniform(-1, 1, size=(40, 2))
        y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1]
        start = init_model(2, 2, X)
        start.mf_params[0][1] = [1e7, 1.0, 50.0]
        grads = premise_gradients(start, X, y)
        assert np.all(np.isfinite(grads[0])) and grads[0][1].tolist() == [0.0, 0.0, 0.0]
        model, history = train(start, X, y, epochs=5)
        assert len(history) == 5 and np.all(np.isfinite(history))
        assert model.mf_params[0][1].tolist() == [1e7, 1.0, 50.0]

    def test_premise_gradients_match_finite_differences(self):
        rng = np.random.Generator(np.random.Philox(7))
        X = rng.uniform(-1, 1, size=(40, 2))
        y = np.sin(2 * X[:, 0]) * np.cos(X[:, 1]) + 0.3 * X[:, 1]
        m = init_model(2, 3, X)
        m.consequents = rng.normal(size=m.consequents.shape) * 0.3
        grads = premise_gradients(m, X, y)

        def mse(model):
            pred, _ = forward_batch(model, X)
            return float(np.mean((pred - y) ** 2))

        h = 1e-6
        for i in range(2):
            for mf in range(3):
                for p in range(3):
                    up = copy.deepcopy(m)
                    dn = copy.deepcopy(m)
                    up.mf_params[i][mf, p] += h
                    dn.mf_params[i][mf, p] -= h
                    fd = (mse(up) - mse(dn)) / (2 * h)
                    an = grads[i][mf, p]
                    denom = max(abs(fd), abs(an), 1e-8)
                    assert abs(fd - an) / denom < 1e-4

    @staticmethod
    def random_model(seed, counts, n_rows, masked):
        """A model with random premises and consequents, and data to take gradients on.

        masked (two inputs or more): every membership of input 0 on row 0
        and of input 1's last MF on every row lies near 1e-305, at or below
        ``_W_TINY`` but with |z|^(2b) still finite, so row 0's total
        strength is at most ``_W_TINY`` too.
        """
        rng = np.random.Generator(np.random.Philox(seed))
        d = len(counts)
        X = rng.uniform(-1.5, 1.5, size=(n_rows, d))
        params = [
            np.column_stack([rng.uniform(-1, 1, k), rng.uniform(0.05, 1.0, k),
                             rng.uniform(0.1, 50.0, k)])
            for k in counts
        ]
        if masked and d >= 2:
            params[0][:, 1:] = (1.0, 50.0)  # 1122^100 is about 1e305
            X[0, 0] = 1122.0
            params[1][-1] = (1122.0, 1.0, 50.0)
        consequents = rng.normal(size=(int(np.prod(counts)), d + 1))
        names = tuple(f"x{i + 1}" for i in range(d))
        return TskModel(params, consequents, names), X, rng.normal(size=n_rows)

    def assert_matches_loop_reference(self, model, X, y):
        state = premise_state(model, X)
        ref_state = gradient_oracle.premise_state(model, X)
        assert [u.tobytes() for u in state.U] == [u.tobytes() for u in ref_state.U]
        assert state.w.tobytes() == ref_state.w.tobytes()
        assert state.wbar.tobytes() == ref_state.wbar.tobytes()
        for shared in (state, None):
            got = premise_gradients(model, X, y, state=shared)
            ref = gradient_oracle.premise_gradients(model, X, y, state=shared)
            assert [g.tobytes() for g in got] == [g.tobytes() for g in ref]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(2, 4), min_size=1, max_size=3),
        st.integers(2, 40),
        st.booleans(),
    )
    def test_premise_pass_matches_loop_reference(self, seed, counts, n_rows, masked):
        self.assert_matches_loop_reference(*self.random_model(seed, counts, n_rows, masked))

    def test_premise_pass_matches_loop_reference_on_masked_rows(self):
        # the paper's grid, with both masked branches taken
        model, X, y = self.random_model(3, [2, 2, 2, 8, 2], 200, masked=True)
        U, w, _ = premise_state(model, X)
        assert w[0].sum() <= _W_TINY < w[1:].sum(axis=1).min()
        assert np.all(U[1][:, -1] <= _W_TINY)
        self.assert_matches_loop_reference(model, X, y)

    def test_lse_is_optimal_for_frozen_premises(self):
        rng = np.random.Generator(np.random.Philox(11))
        X = rng.uniform(-1, 1, size=(50, 2))
        y = X[:, 0] ** 2 - 0.5 * X[:, 1]
        m = init_model(2, 2, X)
        m.consequents = lse_consequents(m, X, y)
        base = rmse(m, X, y)
        for _ in range(20):
            perturbed = copy.deepcopy(m)
            delta = rng.normal(size=perturbed.consequents.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed.consequents = perturbed.consequents + delta
            assert rmse(perturbed, X, y) >= base - 1e-12

    def test_pass1_rmse_never_worse_on_same_premises(self):
        rng = np.random.Generator(np.random.Philox(13))
        X = rng.uniform(-1, 1, size=(50, 2))
        y = np.tanh(X[:, 0] + X[:, 1])
        m = init_model(2, 2, X)
        m.consequents = lse_consequents(m, X, y)
        first = rmse(m, X, y)
        m.consequents = rng.normal(size=m.consequents.shape)
        m.consequents = lse_consequents(m, X, y)
        assert rmse(m, X, y) <= first + 1e-12

    def test_ridge_variant_trains(self):
        X = grid_2d(7)
        y = X[:, 0] + X[:, 1]
        model, history = train(init_model(2, 2, X), X, y, epochs=3, ridge=1e-2)
        assert history[-1] < 0.2

    def test_empty_data_rejected(self):
        m = init_model(1, 2, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            train(m, np.zeros((0, 1)), np.zeros(0), epochs=1)

    def test_epochs_checked(self):
        m = init_model(1, 2, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            train(m, np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), epochs=0)

    @pytest.mark.parametrize("learn_rate", [float("nan"), -0.5, 0.0, float("inf")])
    def test_bad_learn_rate_rejected(self, learn_rate):
        # a NaN rate leaves NaN MF parameters behind a finite-looking
        # history, and a negative one climbs the error
        X = grid_2d(5)
        with pytest.raises(ValueError, match="^learn_rate must be positive$"):
            train(init_model(2, 2, X), X, X[:, 0] * X[:, 1], epochs=2, learn_rate=learn_rate)

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_bad_ridge_rejected(self, ridge):
        # a negative or NaN ridge would silently take the minimum-norm path
        X = grid_2d(5)
        y = X[:, 0] * X[:, 1]
        m = init_model(2, 2, X)
        with pytest.raises(ValueError, match="^ridge must be >= 0 or null$"):
            train(m, X, y, epochs=2, ridge=ridge)
        with pytest.raises(ValueError, match="^ridge must be >= 0 or null$"):
            lse_consequents(m, X, y, ridge)

    def test_zero_ridge_is_minimum_norm(self):
        X = grid_2d(5)
        y = X[:, 0] * X[:, 1]
        m = init_model(2, 2, X)
        assert lse_consequents(m, X, y, 0.0).tobytes() == lse_consequents(m, X, y).tobytes()

    def test_failed_least_squares_propagates(self, monkeypatch):
        # a failed factorization is an error, not a silent refit with another ridge
        X = grid_2d(5)
        m = init_model(2, 2, X)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            lse_consequents(m, X, X[:, 0] * X[:, 1])
        with pytest.raises(ValueError):  # the CLI's data-error exit
            train(m, X, X[:, 0] * X[:, 1], epochs=1, ridge=None)

    def test_zero_epochs_rejected(self):
        X = grid_2d(5)
        with pytest.raises(ValueError, match=r"^epochs must be >= 1$"):
            train(init_model(2, 2, X), X, X[:, 0] * X[:, 1], epochs=0)

    def test_nonfinite_loss_diagnosed(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1e300])
        m = init_model(1, 2, X)
        with np.errstate(all="ignore"):
            with pytest.raises((TrainingError, np.linalg.LinAlgError)):
                model, _ = train(m, X, y, epochs=3, learn_rate=1e280)


class TestNormalEquations:
    """The Gram matrix and right-hand side against exact rational arithmetic.

    Both are sums over N samples of products of rounded factors, so each
    entry lies within gamma_n * sum|terms| of its exact value, where n counts
    the roundings on one term's path (the standard dot-product bound),
    plus an allowance for gradual underflow, which adds absolute, not
    relative, errors.  For ``normal_equations``, with m = sum k_i:
    - Gram: ubar_i rounds k_i times (its k_i - 1 sums, then the division),
      a pair product once more, so 2 k_i + 1 per input; the regressor pair
      once; joining the d + 1 pair products d times; summing N - 1 times:
      n = sum (2 k_i + 1) + d + N;
    - right-hand side: the d ubar_i, d - 1 products, a * y, the product
      with it and the sum: n = m + d + N.
    Every factor but a * a (at most M = max(1, max|x|)^2) or a * y lies in
    [0, 1], so an underflow error of at most 2^-1075 per rounding grows to
    at most n * N * M * 2^-1074 in all.  The explicit phi.T @ phi rounds
    each raw strength d - 1 times, their total R - 1 more and the quotient
    once, then phi once, the product once and the sum N - 1 times:
    n = 2 (2d + R - 1) + N - 1 for the Gram, 2d + R + N - 1 for phi.T @ y.
    It divides raw strengths, whose underflow errors are absolute, by
    their total, so its allowance is ((R + 1) d + 2) N M 2^-1074 / tau, with
    tau the smallest total of a row not on uniform strengths (at most 1).
    """

    @staticmethod
    def model_with_small_totals(seed, counts, n_rows, masked):
        """``TestTrain.random_model`` with rows 1 and, from four rows on, 2 of
        total strength in [1e-300, 1e-150]; the last row keeps its draw.
        Input 0's MFs get width 1 and shape 50, such a row's
        x_0 = 10^(e/100) with e in [155, 295] puts each of its memberships
        near 10^-e, and each other input sits on the centre of its first MF."""
        model, X, y = TestTrain.random_model(seed, counts, n_rows, masked)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        model.mf_params[0][:, 1:] = (1.0, 50.0)
        small = np.arange(1, min(3, n_rows - 1))
        X[small, 0] = 10.0 ** (rng.uniform(155, 295, size=len(small)) / 100)
        for i in range(1, len(counts)):
            X[small, i] = model.mf_params[i][0, 0]
        return model, X, y, small

    # exact sums grow by thousands of bits a row, so the rows are few
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.tuples(st.lists(st.integers(2, 4), min_size=1, max_size=3),
                            st.integers(3, 6)),
                  st.tuples(st.just([2, 2, 2, 8, 2]), st.just(3))),
        st.booleans(),
    )
    def test_matches_exact_arithmetic(self, seed, grid, masked):
        counts, n_rows = grid
        model, X, y, small = self.model_with_small_totals(seed, counts, n_rows, masked)
        state = premise_state(model, X)
        total = state.w.sum(axis=1)
        assert np.all((1e-300 <= total[small]) & (total[small] <= 1e-150))
        if masked and len(counts) >= 2:
            assert total[0] <= _W_TINY  # the uniform fallback row
        exact_gram, exact_rhs = gram_oracle.exact_normal_equations(state, X, y)
        classes = gram_oracle.entry_classes(tuple(counts) + (len(counts) + 1,))
        gram, rhs = normal_equations(model, X, y, state=state)
        assert np.array_equal(gram, gram.T)

        N, d, R = n_rows, len(counts), model.rule_count
        M = Fraction(max(1.0, float(np.abs(X).max()))) ** 2
        My = Fraction(max(1.0, float(np.abs(X).max()))) * Fraction(max(1.0, float(np.abs(y).max())))
        n = sum(2 * k + 1 for k in counts) + d + N
        gram_oracle.assert_within(gram, exact_gram, n, n * N * M / 2**1074, classes)
        n = sum(counts) + d + N
        gram_oracle.assert_within(rhs, exact_rhs, n, n * N * My / 2**1074)

        # the explicit design matrix meets the same kind of bound
        phi = (state.wbar[:, :, None] * np.column_stack([X, np.ones(N)])[:, None, :]).reshape(N, -1)
        ok = total > _W_TINY
        tau = min([Fraction(1)] + [Fraction(float(t)) for t in total[ok]])
        slack = ((R + 1) * d + 2) * N / tau / 2**1074
        gram_oracle.assert_within(phi.T @ phi, exact_gram, 2 * (2 * d + R - 1) + N - 1,
                                  slack * M, classes)
        gram_oracle.assert_within(phi.T @ y, exact_rhs, 2 * d + R + N - 1, slack * My)


class TestRulesAndSerialization:
    def test_rule_count_lines(self):
        X = grid_2d(5)
        m = init_model(2, 2, X)
        lines = extract_rules(m)
        assert len(lines) == 4
        assert all(line.startswith("IF ") and " THEN sf = " in line for line in lines)

    def test_labels(self):
        assert mf_labels(3) == ("low", "medium", "high")
        assert mf_labels(2) == ("low", "high")
        assert mf_labels(7) == tuple(f"level{i}" for i in range(1, 8))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(17))
        X = rng.uniform(-1, 1, size=(30, 2))
        y = X[:, 0] * X[:, 1]
        model, _ = train(init_model(2, 2, X), X, y, epochs=5)
        model.normalization = NormalizationRecord(
            ("a", "b"), (0.0, -1.0, -2.0), (1.0, 1.0, 2.0)
        )
        model.input_medians = (0.25, -0.5)
        path = tmp_path / "model.json"
        atomic_write_text(str(path), model_json_text(model))
        again = load_model(str(path))
        assert extract_rules(again) == extract_rules(model)
        assert np.array_equal(again.consequents, model.consequents)
        for p, q in zip(again.mf_params, model.mf_params):
            assert np.array_equal(p, q)
        atomic_write_text(str(tmp_path / "model2.json"), model_json_text(again))
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_schema_version_checked(self):
        doc = model_to_dict(init_model(1, 2, np.array([[0.0], [1.0]])))
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(doc)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_integer_one(self, version):
        # True == 1 and 1.0 == 1 in Python, so equality alone admits them
        doc = model_to_dict(init_model(1, 2, np.array([[0.0], [1.0]])))
        doc["schema_version"] = version
        with pytest.raises(ValueError, match="unsupported model schema_version"):
            model_from_dict(doc)

    def test_deterministic_retrain(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(19))
        X = rng.uniform(-1, 1, size=(40, 3))
        y = X[:, 0] - X[:, 1] * X[:, 2]

        def run(path):
            m, _ = train(init_model(3, 2, X), X, y, epochs=10)
            atomic_write_text(str(path), model_json_text(m))

        run(tmp_path / "a.json")
        run(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestDamageMap:
    def _model_with_metadata(self):
        rng = np.random.Generator(np.random.Philox(23))
        X = rng.uniform(-1, 1, size=(60, 5))
        y = X[:, 3] ** 2
        names = ("dip_deg", "dipdir_deg", "phi_deg", "angle_deg", "volume_m3")
        m, _ = train(init_model(5, 2, X, input_names=names), X, y, epochs=2)
        m.normalization = NormalizationRecord(
            ("dip_deg", "dipdir_deg", "phi_deg", "angle_deg", "volume_m3"),
            (10.0, 100.0, 15.0, 31.0, 0.0, 0.0),
            (35.0, 160.0, 25.0, 391.0, 400.0, 5.0),
        )
        m.input_medians = (22.0, 130.0, 20.0, 200.0, 150.0)
        return m

    def test_uniform_model_uniform_map(self):
        m = self._model_with_metadata()
        m.consequents = np.zeros_like(m.consequents)
        m.consequents[:, -1] = 0.25
        series = damage_map(m, 36)
        values = {round(v, 9) for _, v in series}
        assert len(values) == 1

    def test_angles_span_trained_domain(self):
        m = self._model_with_metadata()
        series = damage_map(m, 36)
        assert len(series) == 36
        assert all(0.0 <= a < 360.0 for a, _ in series)

    def test_angles_wrap_into_range(self):
        # the second bin centre over (-0.9, 3.9) is -1.1e-16, which % 360
        # rounds up to 360
        m = self._model_with_metadata()
        rec = m.normalization
        mins, maxs = list(rec.mins), list(rec.maxs)
        mins[3], maxs[3] = -0.9, 3.9
        m.normalization = NormalizationRecord(rec.feature_names, tuple(mins), tuple(maxs))
        angles = [a for a, _ in damage_map(m, 8)]
        assert angles[1] == 0.0
        assert all(0.0 <= a < 360.0 for a in angles)

    def test_denormalization_round_trip(self):
        m = self._model_with_metadata()
        rec = m.normalization
        raw = np.array([[20.0, 120.0, 18.0, 100.0, 50.0]])
        normd = rec.apply_features(raw)
        pred, _ = forward_batch(m, normd)
        assert rec.invert_target(rec.apply_target(np.array([2.5])))[0] == pytest.approx(2.5)

    def test_per_bin_overrides(self):
        m = self._model_with_metadata()
        vols = np.linspace(10, 300, 36)
        series = damage_map(m, 36, per_bin_inputs={"volume_m3": vols})
        assert len(series) == 36
        with pytest.raises(ValueError):
            damage_map(m, 36, per_bin_inputs={"volume_m3": vols[:10]})

    def test_requires_metadata(self):
        m = init_model(5, 2, np.zeros((4, 5)) + np.linspace(0, 1, 4).reshape(-1, 1))
        with pytest.raises(ValueError):
            damage_map(m, 16)

    def test_min_bins(self):
        m = self._model_with_metadata()
        with pytest.raises(ValueError):
            damage_map(m, 4)


def test_bell_membership_shape():
    params = np.array([[0.0, 1.0, 2.0], [1.0, 0.5, 1.0]])
    vals = bell_membership(np.array([0.0, 1.0]), params)
    assert vals.shape == (2, 2)
    assert vals[0, 0] == pytest.approx(1.0)
    assert vals[1, 1] == pytest.approx(1.0)
