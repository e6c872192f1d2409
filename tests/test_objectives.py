"""Unit tests for the synthetic objectives and the finite-difference oracle."""

import math

import numpy as np
import pytest

from ssmopt import finite_diff_grad, make_logistic, make_quadratic, make_rosenbrock


class TestQuadratic:
    def test_value_and_gradient_at_ones(self):
        obj = make_quadratic(2, 100.0)
        assert obj.eval_f(np.ones(2)) == 50.5
        assert np.array_equal(obj.eval_grad(np.ones(2)), np.array([1.0, 100.0]))

    def test_condition_one_is_isotropic(self, rng):
        obj = make_quadratic(3, 1.0)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert math.isclose(obj.eval_f(x), 0.5 * float(np.dot(x, x)), rel_tol=1e-15)

    def test_one_dimensional_uses_unit_curvature(self):
        obj = make_quadratic(1, 50.0)
        assert obj.eval_f(np.array([2.0])) == 2.0
        assert obj.eval_grad(np.array([2.0]))[0] == 2.0

    def test_known_minimum(self):
        obj = make_quadratic(4, 10.0)
        argmin, fmin = obj.known_min
        assert fmin == 0.0
        assert np.array_equal(obj.eval_grad(argmin), np.zeros(4))

    def test_geometric_eigenvalue_spread(self):
        obj = make_quadratic(3, 100.0)
        e = np.eye(3)
        diag = [obj.eval_grad(e[i])[i] for i in range(3)]
        assert np.allclose(diag, [1.0, 10.0, 100.0], rtol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_quadratic(0, 10.0)
        with pytest.raises(ValueError):
            make_quadratic(2, 0.5)


class TestRosenbrock:
    def test_minimum_at_ones(self):
        obj = make_rosenbrock(2)
        assert obj.eval_f(np.ones(2)) == 0.0
        assert np.array_equal(obj.eval_grad(np.ones(2)), np.zeros(2))

    def test_value_at_origin(self):
        assert make_rosenbrock(2).eval_f(np.zeros(2)) == 1.0

    def test_nonnegative_on_box(self, rng):
        obj = make_rosenbrock(4)
        for _ in range(100):
            x = rng.uniform(-obj.box, obj.box, size=4)
            assert obj.eval_f(x) >= 0.0

    def test_curvature_hint_cleared(self):
        assert make_rosenbrock(2).hessian_bounded_hint is False

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            make_rosenbrock(1)


class TestLogistic:
    def test_zero_weights_value_is_log_two(self):
        obj = make_logistic(5, 40, seed=0)
        assert obj.eval_f(np.zeros(5)) == math.log(2.0)

    def test_same_seed_bit_identical(self, rng):
        a = make_logistic(4, 30, seed=7)
        b = make_logistic(4, 30, seed=7)
        for _ in range(10):
            w = rng.standard_normal(4)
            assert a.eval_f(w) == b.eval_f(w)
            assert np.array_equal(a.eval_grad(w), b.eval_grad(w))

    def test_different_seeds_differ(self):
        a = make_logistic(4, 30, seed=1)
        b = make_logistic(4, 30, seed=2)
        w = np.ones(4)
        assert a.eval_f(w) != b.eval_f(w)

    def test_gradient_descent_makes_progress(self):
        obj = make_logistic(5, 40, seed=0)
        w = np.zeros(5)
        g0 = float(np.linalg.norm(obj.eval_grad(w)))
        for _ in range(100):
            w = w - 1.0 * obj.eval_grad(w)
        assert float(np.linalg.norm(obj.eval_grad(w))) < 0.2 * g0
        assert obj.eval_f(w) < math.log(2.0)

    def test_stable_at_extreme_weights(self):
        obj = make_logistic(3, 20, seed=3)
        w = np.full(3, 1e4)
        assert np.isfinite(obj.eval_f(w))
        assert np.all(np.isfinite(obj.eval_grad(w)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_logistic(0, 10, seed=0)
        with pytest.raises(ValueError):
            make_logistic(3, 0, seed=0)


@pytest.mark.parametrize(
    "obj", [make_quadratic(3, 50.0), make_rosenbrock(4), make_logistic(5, 40, 0)], ids=lambda o: o.name
)
def test_batched_gradient_rows_equal_single_points(obj, rng):
    xs = rng.uniform(-obj.box, obj.box, (6, obj.dim))
    batch = obj.eval_grad(xs)
    assert batch.shape == xs.shape
    for x, g in zip(xs, batch):
        assert np.array_equal(g, obj.eval_grad(x))
    # a strided view, as the flow integrator passes it
    packed = np.stack([xs, -xs], axis=1)
    assert np.array_equal(obj.eval_grad(packed[:, 0]), batch)


class TestFiniteDiff:
    def test_near_exact_on_quadratic(self):
        obj = make_quadratic(2, 100.0)
        x = np.array([0.3, -1.7])
        fd = finite_diff_grad(obj, x, h=1e-4)
        g = obj.eval_grad(x)
        assert np.max(np.abs(fd - g)) < 1e-8 * max(1.0, float(np.max(np.abs(g))))

    def test_second_order_error_decay(self):
        # central differences have O(h^2) truncation error; on a cubic-rich
        # surface halving h should cut the error by about 4
        obj = make_rosenbrock(2)
        x = np.array([-1.2, 1.0])
        g = obj.eval_grad(x)
        e1 = float(np.max(np.abs(finite_diff_grad(obj, x, h=1e-2) - g)))
        e2 = float(np.max(np.abs(finite_diff_grad(obj, x, h=5e-3) - g)))
        assert e1 > 0 and e2 > 0
        assert 2.5 < e1 / e2 < 6.0

    def test_all_objectives_at_random_box_points(self, rng):
        objectives = [
            make_quadratic(2, 100.0),
            make_rosenbrock(2),
            make_logistic(5, 40, seed=0),
        ]
        for obj in objectives:
            for _ in range(100):
                x = rng.uniform(-obj.box, obj.box, size=obj.dim)
                fd = finite_diff_grad(obj, x, h=1e-5)
                g = obj.eval_grad(x)
                rel = float(np.linalg.norm(fd - g) / (np.linalg.norm(g) + 1e-12))
                assert rel < 1e-5

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(make_quadratic(1, 1.0), np.array([1.0]), h=0.0)
