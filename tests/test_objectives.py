"""Unit tests for the synthetic objectives and the finite-difference oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from ssmopt import ValidationError, finite_diff_grad, make_logistic, make_quadratic, make_rosenbrock
from ssmopt.harness import OBJECTIVE_KINDS, ObjectiveSpec, build_objective
from ssmopt.objectives import BOX, _lcg_draws
from oracles import lcg_uniform, logistic_problem, pairwise_sum, rosenbrock_f, rosenbrock_grad


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

    def test_minimum_at_zero(self):
        obj = make_quadratic(4, 10.0)
        assert obj.eval_f(np.zeros(4)) == 0.0
        assert np.array_equal(obj.eval_grad(np.zeros(4)), np.zeros(4))

    def test_geometric_eigenvalue_spread(self):
        obj = make_quadratic(3, 100.0)
        e = np.eye(3)
        diag = [obj.eval_grad(e[i])[i] for i in range(3)]
        assert np.allclose(diag, [1.0, 10.0, 100.0], rtol=1e-12)

    def test_invalid_arguments(self):
        cases = [
            ((0, 10.0), ["d >= 1"]),
            ((2, 0.5), ["condition_number >= 1"]),
            ((2, math.nan), ["condition_number >= 1", "condition_number finite"]),
            ((2, math.inf), ["condition_number finite"]),
        ]
        for args, violations in cases:
            with pytest.raises(ValidationError) as err:
                make_quadratic(*args)
            assert err.value.violations == violations


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
            x = rng.uniform(-BOX, BOX, size=4)
            assert obj.eval_f(x) >= 0.0

    def test_dimension_check(self):
        with pytest.raises(ValidationError) as err:
            make_rosenbrock(1)
        assert err.value.violations == ["d >= 2"]

    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_gradient_equals_the_oracle(self, d, rng):
        # tests/oracles.py::rosenbrock_grad, bit for bit, at the minimum, at
        # -0.0 and at coordinates of either sign and magnitudes 1e-8 to 1e8
        obj = make_rosenbrock(d)
        xs = rng.choice([-1.0, 1.0], (24, d)) * 10.0 ** rng.uniform(-8.0, 8.0, (24, d))
        xs[0], xs[1] = 1.0, -0.0
        want = np.array([rosenbrock_grad(x) for x in xs])
        for x, g in zip(xs, want):
            got = obj.eval_grad(x)
            assert got.shape == (d,) and got.tobytes() == g.tobytes()
        # a batch, and a strided view of one, as the run loop passes it
        states = np.stack([xs, -xs, xs, xs], axis=1)
        for batch in (xs, states[:, 0]):
            got = obj.eval_grad(batch)
            assert got.shape == (24, d) and got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 10, 50])
    def test_value_and_fused_pass_equal_the_oracles(self, d, rng):
        # tests/oracles.py::rosenbrock_f and rosenbrock_grad, bit for bit, on
        # single points, batches and a strided view, with coordinates of
        # either sign, magnitudes 1e-8 to 1e8 and zeros of either sign
        obj = make_rosenbrock(d)
        xs = rng.choice([-1.0, 1.0], (24, d)) * 10.0 ** rng.uniform(-8.0, 8.0, (24, d))
        zeros = rng.random((24, d)) < 0.3
        xs[zeros] = np.copysign(0.0, xs[zeros])
        xs[0], xs[1], xs[2] = 1.0, -0.0, 0.0
        assert np.signbit(xs[3:][xs[3:] == 0.0]).any() and not np.signbit(xs[3:][xs[3:] == 0.0]).all()
        want_f = np.array([rosenbrock_f(x) for x in xs])
        want_g = np.array([rosenbrock_grad(x) for x in xs])
        for x, f, g in zip(xs, want_f, want_g):
            value, grad = obj.eval_f_grad(x)
            assert type(value) is float and repr(value) == repr(float(f)) == repr(obj.eval_f(x))
            assert grad.shape == (d,) and grad.tobytes() == g.tobytes() == obj.eval_grad(x).tobytes()
        states = np.stack([xs, -xs, xs, xs], axis=1)
        for batch in (xs, states[:, 0], states[:1, 0]):
            n = len(batch)
            values, grads = obj.eval_f_grad(batch)
            assert values.shape == (n,) and values.tobytes() == want_f[:n].tobytes() == obj.eval_f(batch).tobytes()
            assert grads.shape == (n, d) and grads.flags.c_contiguous
            assert grads.tobytes() == want_g[:n].tobytes() == obj.eval_grad(batch).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 128, 129, 300])
    def test_the_sum_oracle_is_numpys_row_sum(self, n, rng):
        # pairwise_sum stands for np.add.reduce on the short and long runs
        # the other oracles use; its blocks change at 8 and 128 values
        rows = rng.standard_normal((20, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (20, n))
        want = np.add.reduce(rows, axis=-1)
        assert np.array([pairwise_sum(row) for row in rows]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [4, 10])
    def test_batch_row_norms_equal_single_points(self, d, rng):
        # the run loops take each row's norm as the ddot of np.vecdot; a
        # strided row would sum in another order than a single point's
        obj = make_rosenbrock(d)
        states = rng.uniform(-2.0, 2.0, (16, 4, d))
        got = obj.eval_grad(states[:, 0])
        norms = np.sqrt(np.vecdot(got, got))
        assert [norm.tobytes() for norm in norms] == [np.linalg.norm(obj.eval_grad(s[0])).tobytes() for s in states]


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
        for args, violations in (((0, 10), ["d >= 1"]), ((3, 0), ["n_samples >= 1"]), ((0, 0), ["d >= 1", "n_samples >= 1"])):
            with pytest.raises(ValidationError) as err:
                make_logistic(*args, seed=0)
            assert err.value.violations == violations

    @pytest.mark.parametrize("n", [2000, 20_000])
    def test_build_holds_one_dataset_buffer(self, n):
        # the build's peak is its one (n*d + d)-float buffer plus a fixed
        # allowance, not a second dataset-sized array
        d = 100
        make_logistic(d, n, 7)
        tracemalloc.start()
        try:
            obj = make_logistic(d, n, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obj.dim == d
        assert peak <= (n * d + d) * 8 + 256 * 1024


def logistic_points(d, rng):
    """Weights at which to check the logistic objective: zero (every margin
    exactly 0), points inside the box, and points whose margins exceed 745
    in magnitude, where exp under- or overflows."""
    return np.concatenate([
        np.zeros((1, d)),
        rng.uniform(-5.0, 5.0, (5, d)),
        rng.standard_normal((4, d)) * np.array([[1e3], [1e4], [1e6], [1e100]]),
    ])


class TestLogisticOracle:
    """make_logistic against tests/oracles.py::logistic_problem, bit for bit."""

    @pytest.mark.parametrize("d, n", [(5, 40), (100, 2000)])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_single_points_and_batches_equal_the_oracle(self, d, n, seed, rng):
        obj = make_logistic(d, n, seed)
        f, grad = logistic_problem(d, n, seed)
        ws = logistic_points(d, rng)
        want_f = np.array([f(w) for w in ws])
        want_g = np.array([grad(w) for w in ws])
        # every margin is exactly 0 at w = 0
        assert want_f[0] == np.mean(np.full(n, math.log(2.0)))
        for w, fw, gw in zip(ws, want_f, want_g):
            value = obj.eval_f(w)
            assert type(value) is float and value == fw
            assert obj.eval_grad(w).tobytes() == gw.tobytes()
            value, g = obj.eval_f_grad(w)
            assert type(value) is float and value == fw
            assert g.shape == (d,) and g.tobytes() == gw.tobytes()
        # a batch, and a strided view of one, as the run loop passes it
        states = np.stack([ws, -ws, ws, ws], axis=1)
        for batch in (ws, states[:, 0]):
            assert obj.eval_f(batch).tobytes() == want_f.tobytes()
            assert obj.eval_grad(batch).tobytes() == want_g.tobytes()
            fs, gs = obj.eval_f_grad(batch)
            assert fs.tobytes() == want_f.tobytes() and gs.tobytes() == want_g.tobytes()

    def test_points_reach_margins_beyond_745(self, rng):
        # the extreme points above do what logistic_points says they do
        u = lcg_uniform(5 * 40, 0)
        X = 2.0 * u.reshape(40, 5) - 1.0
        margins = np.abs(X @ logistic_points(5, rng).T)
        assert (margins[:, 6:] > 745.0).any(axis=0).all()

    def test_one_logaddexp_serves_both_signs(self):
        # the identities eval_f_grad rests on, at the edges of exp's range;
        # a NaN margin gives NaN either way, though its sign bit may differ
        m = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 36.7, -36.7, 709.78, -709.78,
                      745.2, -745.2, 1e300, -1e300, np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            shared = np.logaddexp(0.0, -np.abs(m))
            for want, got in [
                (np.logaddexp(0.0, -m), np.maximum(-m, 0.0) + shared),
                (np.logaddexp(0.0, m), np.maximum(m, 0.0) + shared),
            ]:
                assert want[:-1].tobytes() == got[:-1].tobytes()
                assert np.isnan(want[-1]) and np.isnan(got[-1])

    # counts at the edges of the doubling blocks and of the conversion chunks
    @pytest.mark.parametrize(
        "count", [1, 2, 3, 7, 205, 511, 512, 513, 1023, 1024, 1025, 8191, 8192, 8193, 100_000, 200_100]
    )
    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 31 - 1, 2 ** 40 + 5, -7])
    def test_lcg_equals_sequential_draws(self, count, seed):
        assert _lcg_draws(count, seed).tobytes() == (2.0 * lcg_uniform(count, seed) - 1.0).tobytes()


@pytest.mark.parametrize(
    "obj", [make_quadratic(3, 50.0), make_rosenbrock(4), make_logistic(5, 40, 0)], ids=lambda o: o.name
)
def test_batched_gradient_rows_equal_single_points(obj, rng):
    xs = rng.uniform(-BOX, BOX, (6, obj.dim))
    batch = obj.eval_grad(xs)
    assert batch.shape == xs.shape
    for x, g in zip(xs, batch):
        assert np.array_equal(g, obj.eval_grad(x))
    # a strided view, as the flow integrator passes it
    packed = np.stack([xs, -xs], axis=1)
    assert np.array_equal(obj.eval_grad(packed[:, 0]), batch)


def objectives_at_every_dim():
    for d in (1, 2, 3, 10, 40, 100):
        yield make_quadratic(d, 50.0)
        if d > 1:
            yield make_rosenbrock(d)
            yield make_logistic(d, 40, 0)


@pytest.mark.parametrize("obj", list(objectives_at_every_dim()), ids=lambda o: o.name)
def test_batched_values_equal_single_points_bitwise(obj, rng):
    # rows of mixed magnitude, so that the per-row sums round differently
    xs = rng.standard_normal((64, obj.dim)) * rng.uniform(0.01, BOX, (64, 1))
    batch = obj.eval_f(xs)
    assert batch.shape == (64,) and batch.dtype == np.float64
    single = [obj.eval_f(x) for x in xs]
    assert all(type(v) is float for v in single)
    assert batch.tobytes() == np.array(single).tobytes()
    # a strided view, as the run loop passes it
    packed = np.stack([xs, -xs], axis=1)
    assert obj.eval_f(packed[:, 0]).tobytes() == batch.tobytes()


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
                x = rng.uniform(-BOX, BOX, size=obj.dim)
                fd = finite_diff_grad(obj, x, h=1e-5)
                g = obj.eval_grad(x)
                rel = float(np.linalg.norm(fd - g) / (np.linalg.norm(g) + 1e-12))
                assert rel < 1e-5

    def test_step_must_be_positive(self):
        for h, violations in ((0.0, ["h > 0"]), (math.nan, ["h > 0", "h finite"])):
            with pytest.raises(ValidationError) as err:
                finite_diff_grad(make_quadratic(1, 1.0), np.array([1.0]), h=h)
            assert err.value.violations == violations

    def test_step_must_be_finite(self):
        # inf passes h > 0, and inf * eye(d) is NaN off the diagonal
        with pytest.raises(ValidationError) as err:
            finite_diff_grad(make_quadratic(1, 1.0), np.array([1.0]), h=math.inf)
        assert err.value.violations == ["h finite"]


class TestEveryObjective:
    def test_work_is_the_multiply_adds_of_one_point(self):
        assert make_quadratic(7, 10.0).work == 7
        assert make_rosenbrock(5).work == 5
        assert make_logistic(100, 2000, seed=1).work == 2 * 2000 * 100

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_f_grad_is_f_and_grad_row_by_row(self, kind, dim, rng):
        # Objective.eval_f_grad is the run loop's one objective call per step: it
        # must give eval_f and eval_grad bitwise, and each row of a batch (a
        # strided view, as the loop passes it) must be its point alone
        obj = build_objective(ObjectiveSpec(kind=kind, dim=dim))
        xs = rng.uniform(-2.0, 2.0, (7, 4, dim))[:, 0]
        xs[0] = -0.0
        fs, gs = obj.eval_f_grad(xs)
        assert fs.shape == (7,) and fs.tobytes() == obj.eval_f(xs).tobytes()
        assert gs.shape == (7, dim) and gs.flags.c_contiguous and gs.tobytes() == obj.eval_grad(xs).tobytes()
        for x, f, g in zip(xs, fs, gs):
            value, grad = obj.eval_f_grad(x)
            assert type(value) is float and repr(value) == repr(float(f))
            assert grad.tobytes() == g.tobytes()
