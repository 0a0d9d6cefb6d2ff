"""Gaussian-process surrogate: exactness against closed forms and
independent dense-linear-algebra oracles, then training behavior."""

import copy
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.spatial.distance import cdist
from scipy.stats import multivariate_normal, norm

from dynens import surrogate
from dynens.app.objective import make_objective
from dynens.surrogate import (
    JITTER_LADDER,
    GaussianProcess,
    SurrogateError,
    crps_gaussian,
    squared_exponential,
)

# Closed forms, worked out by hand before the implementation existed.
# One training point X=[0], y=[1], unit kernel, zero noise, query x*=1:
#   k(0,1) = e^{-1/2}; mean = e^{-1/2} * 1; var = 1 - e^{-1}.
MEAN_ONE_POINT = 0.6065306597126334
VAR_ONE_POINT = 0.6321205588285577
# m=1, K=[[1]], y=[0]: lml = -1/2 log(2 pi).
LML_ZERO_OBS = -0.9189385332046727
# CRPS at y = mu, sigma = 1: 2/sqrt(2 pi) - 1/sqrt(pi).
CRPS_AT_CENTER = 0.2336949772551091


def reference_kernel(A, B, signal_variance, lengthscales):
    # Independent of the module's einsum formulation.
    d2 = cdist(A / lengthscales, B / lengthscales, "sqeuclidean")
    return signal_variance * np.exp(-0.5 * d2)


def fd_gradient(model, theta, h=1e-5):
    g = np.zeros_like(theta)
    for j in range(len(theta)):
        hi = theta.copy()
        hi[j] += h
        lo = theta.copy()
        lo[j] -= h
        g[j] = (model.log_marginal_likelihood(hi)
                - model.log_marginal_likelihood(lo)) / (2.0 * h)
    model.set_log_params(theta)
    return g


def random_instance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 21))
    n = int(rng.integers(1, 6))
    model = GaussianProcess(n, noise_variance=0.1)
    model.tell(rng.uniform(-2, 2, (m, n)), rng.normal(size=m))
    theta = rng.uniform(-1, 1, n + 1)
    return model, theta


# -- closed forms -------------------------------------------------------


def test_posterior_one_point_closed_form():
    model = GaussianProcess(1)
    model.tell([[0.0]], [1.0])
    mean, var = model.posterior([[1.0]])
    assert mean[0] == pytest.approx(MEAN_ONE_POINT, abs=1e-12)
    assert var[0] == pytest.approx(VAR_ONE_POINT, abs=1e-12)


def test_lml_single_zero_observation():
    model = GaussianProcess(1)
    model.tell([[0.5]], [0.0])
    assert model.log_marginal_likelihood() == pytest.approx(LML_ZERO_OBS, abs=1e-12)


def test_crps_at_center():
    assert crps_gaussian(0.0, 0.0, 1.0) == pytest.approx(CRPS_AT_CENTER, abs=1e-12)


# -- kernel -------------------------------------------------------------


def test_kernel_matches_reference():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 3, (7, 3))
    B = rng.uniform(-1, 3, (5, 3))
    ls = np.array([0.5, 1.0, 2.0])
    got = squared_exponential(A, B, 1.7, ls)
    np.testing.assert_allclose(got, reference_kernel(A, B, 1.7, ls), atol=1e-13)


def test_kernel_diagonal_is_signal_variance():
    X = np.array([[0.0, 1.0], [2.0, -1.0]])
    K = squared_exponential(X, X, 2.5, np.array([1.0, 1.0]))
    np.testing.assert_allclose(np.diag(K), 2.5)


# -- posterior behavior -------------------------------------------------


def test_interpolates_at_tiny_noise():
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, (12, 2))
    y = rng.normal(size=12)
    model = GaussianProcess(2, noise_variance=1e-12)
    model.tell(X, y)
    mean, var = model.posterior(X)
    assert np.max(np.abs(mean - y)) < 1e-6
    assert np.max(var) < 1e-6


def test_far_field_reverts_to_prior():
    model = GaussianProcess(1, signal_variance=3.0)
    model.tell([[0.0]], [5.0])
    mean, var = model.posterior([[100.0]])
    assert abs(mean[0]) < 1e-6
    assert var[0] == pytest.approx(3.0, abs=1e-6)


def test_empty_model_returns_prior():
    model = GaussianProcess(2, signal_variance=1.5)
    mean, var = model.posterior([[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(mean, 0.0)
    np.testing.assert_array_equal(var, 1.5)


def test_variance_latent_excludes_noise():
    # At a training input with large noise the latent variance stays below
    # signal_variance and the noise does not show up in the prediction.
    model = GaussianProcess(1, noise_variance=0.5)
    model.tell([[0.0]], [1.0])
    _, var = model.posterior([[0.0]])
    assert 0.0 <= var[0] < 1.0
    assert var[0] == pytest.approx(0.5 / 1.5, abs=1e-12)  # sf2 - sf2^2/(sf2+noise)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_variance_within_prior_bounds(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    model = GaussianProcess(2, noise_variance=float(rng.uniform(0.0, 0.3)),
                            signal_variance=float(rng.uniform(0.1, 4.0)))
    model.tell(rng.uniform(-1, 1, (m, 2)), rng.normal(size=m))
    _, var = model.posterior(rng.uniform(-2, 2, (9, 2)))
    assert np.all(var >= 0.0)
    assert np.all(var <= model.signal_variance + 1e-9)


# -- likelihood and gradient -------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_lml_matches_dense_gaussian_logpdf(seed):
    model, theta = random_instance(seed)
    lml = model.log_marginal_likelihood(theta)
    K = reference_kernel(model.X, model.X, model.signal_variance,
                         model.lengthscales)
    K[np.diag_indices_from(K)] += model.noise_variance
    expect = multivariate_normal.logpdf(model.y, mean=np.zeros(model.n_train),
                                        cov=K)
    assert lml == pytest.approx(expect, abs=1e-8)


@pytest.mark.parametrize("seed", range(50))
def test_gradient_matches_central_differences(seed):
    model, theta = random_instance(seed)
    _, grad = model.lml_and_grad(theta)
    fd = fd_gradient(model, theta)
    rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
    assert rel < 1e-4


def test_gradient_zero_at_interior_stationary_point():
    # Walk to a stationary point, then the analytic gradient should agree
    # with FD that it is (near) zero.
    model, theta = random_instance(123)
    model.train("global", max_iter=60, rng=np.random.default_rng(0))
    _, grad = model.lml_and_grad(model.get_log_params())
    fd = fd_gradient(model, model.get_log_params())
    assert np.linalg.norm(grad - fd) < 1e-4 * max(1.0, np.linalg.norm(fd))


# -- factorization ------------------------------------------------------


def test_jitter_rescues_duplicate_points():
    model = GaussianProcess(1, noise_variance=0.0)
    model.tell([[0.3], [0.3], [1.0]], [2.0, 2.0, -1.0])
    mean, var = model.posterior([[0.3], [0.5]])
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
    assert mean[0] == pytest.approx(2.0, abs=1e-3)
    _, _, jitter = model._factorization()
    assert jitter > 0.0


def test_jitter_ladder_exhaustion_raises():
    # Degenerate at a scale where even the top of the ladder is below
    # rounding: two identical points with a huge signal variance.
    model = GaussianProcess(1, noise_variance=0.0, signal_variance=1e12)
    model.tell([[0.0], [0.0]], [1.0, 1.0])
    with pytest.raises(SurrogateError, match="jitter"):
        model.posterior([[0.5]])


# -- training -----------------------------------------------------------


@pytest.mark.parametrize("method,max_iter", [("global", 20), ("local", 50)])
@pytest.mark.parametrize("seed", [0, 7, 19])
def test_training_never_degrades(method, max_iter, seed):
    model, theta = random_instance(seed)
    model.set_log_params(theta)
    result = model.train(method, max_iter=max_iter,
                         rng=np.random.default_rng(seed))
    assert result.lml_end >= result.lml_start - 1e-9
    assert model.log_marginal_likelihood() == pytest.approx(result.lml_end,
                                                            abs=1e-9)


def test_all_zero_targets_push_signal_to_boundary_without_crash():
    rng = np.random.default_rng(31)
    model = GaussianProcess(2, noise_variance=1e-4)
    model.tell(rng.uniform(0, 1, (10, 2)), np.zeros(10))
    result = model.train("local")
    assert np.isfinite(result.lml_end)
    bounds = model.default_bounds()
    assert model.signal_variance <= math.exp(bounds[0, 1])


def test_new_data_never_raises_variance():
    rng = np.random.default_rng(21)
    X = rng.uniform(0, 1, (9, 2))
    y = rng.normal(size=9)
    queries = rng.uniform(0, 1, (20, 2))
    model = GaussianProcess(2, noise_variance=0.05)
    model.tell(X[:8], y[:8])
    _, before = model.posterior(queries)
    model.tell(X, y)
    _, after = model.posterior(queries)
    assert np.all(after <= before + 1e-8)


def test_global_recovers_known_lengthscale():
    rng = np.random.default_rng(7)
    X = np.sort(rng.uniform(0.0, 2.0, (40, 1)), axis=0)
    true_ls = 0.3
    K = reference_kernel(X, X, 1.0, np.array([true_ls]))
    K[np.diag_indices_from(K)] += 1e-8
    y = np.linalg.cholesky(K) @ rng.standard_normal(40)
    y += 0.01 * rng.standard_normal(40)

    model = GaussianProcess(1, noise_variance=1e-4)
    model.tell(X, y)
    model.train("global", max_iter=120, rng=np.random.default_rng(1))
    assert true_ls / 2 <= model.lengthscales[0] <= true_ls * 2


def test_local_converges_to_stationary_point():
    # Repeated local refinement settles; once settled, another round
    # moves the likelihood by next to nothing.
    model, _ = random_instance(42)
    model.train("global", max_iter=120, rng=np.random.default_rng(2))
    for _ in range(20):
        result = model.train("local")
        if result.lml_end - result.lml_start < 1e-6:
            break
    assert result.lml_end - result.lml_start < 1e-6


def test_training_respects_default_bounds():
    model, _ = random_instance(5)
    model.train("global", max_iter=40, rng=np.random.default_rng(3))
    bounds = model.default_bounds()
    theta = model.get_log_params()
    assert np.all(theta >= bounds[:, 0] - 1e-12)
    assert np.all(theta <= bounds[:, 1] + 1e-12)


def test_training_leaves_noise_alone():
    model, _ = random_instance(8)
    model.train("global", max_iter=30, rng=np.random.default_rng(4))
    assert model.noise_variance == 0.1


def test_global_is_deterministic_under_seed():
    a, theta = random_instance(15)
    b, _ = random_instance(15)
    a.set_log_params(theta)
    b.set_log_params(theta)
    a.train("global", max_iter=25, rng=np.random.default_rng(9))
    b.train("global", max_iter=25, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(a.get_log_params(), b.get_log_params())


def test_unknown_method_rejected():
    model, _ = random_instance(0)
    with pytest.raises(SurrogateError, match="method"):
        model.train("annealing")


def test_train_without_data_rejected():
    with pytest.raises(SurrogateError, match="no training data"):
        GaussianProcess(1).train("local")


def test_tiny_lengthscale_warns(caplog):
    model = GaussianProcess(1, noise_variance=0.1)
    model.tell([[0.0], [1.0]], [0.0, 1.0])
    model.lengthscales = np.array([0.01])
    model._cache = None
    with caplog.at_level(logging.WARNING, logger="dynens.surrogate"):
        model.train("local", max_iter=0)
    assert any("lengthscale" in r.message for r in caplog.records)


def test_tiny_lengthscale_warns_once_while_it_stays_short(caplog):
    model = GaussianProcess(1, noise_variance=0.1)
    model.tell([[0.0], [1.0]], [0.0, 1.0])
    model.lengthscales = np.array([0.01])
    model._cache = None
    # The lengthscale's box is one point, a hundredth of the input range.
    bounds = np.array([[-2.0, 2.0], [math.log(0.01), math.log(0.01)]])
    with caplog.at_level(logging.WARNING, logger="dynens.surrogate"):
        for _ in range(3):
            model.train("local", bounds=bounds)
    assert model.lengthscales[0] == pytest.approx(0.01)
    assert len([r for r in caplog.records if "lengthscale" in r.message]) == 1


def test_tiny_lengthscale_warns_again_after_it_recovers(caplog):
    model = GaussianProcess(1, noise_variance=0.1)
    model.tell([[0.0], [1.0]], [0.0, 1.0])
    with caplog.at_level(logging.WARNING, logger="dynens.surrogate"):
        for lengthscale in (0.01, 0.01, 1.0, 0.01):
            model.lengthscales = np.array([lengthscale])
            model._warn_on_tiny_lengthscales()
    assert len([r for r in caplog.records if "lengthscale" in r.message]) == 2


# -- metrics ------------------------------------------------------------


def test_rmse_zero_on_interpolated_points():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (8, 2))
    y = rng.normal(size=8)
    model = GaussianProcess(2, noise_variance=1e-12)
    model.tell(X, y)
    assert model.rmse(X, y) < 1e-6


def test_rmse_of_empty_model_is_target_norm():
    model = GaussianProcess(1)
    assert model.rmse([[0.0], [1.0]], [3.0, 4.0]) == pytest.approx(
        math.sqrt((9 + 16) / 2))


def test_rmse_empty_set_rejected():
    model = GaussianProcess(1)
    with pytest.raises(SurrogateError, match="empty"):
        model.rmse(np.empty((0, 1)), np.empty(0))


def test_crps_degenerate_sigma_is_absolute_error():
    np.testing.assert_allclose(
        crps_gaussian([1.0, 2.0], [0.5, 4.0], [0.0, 0.0]), [0.5, 2.0])


def test_crps_vectorizes_and_mixes_degenerate():
    out = crps_gaussian([0.0, 1.0, 3.0], [0.0, 1.0, 1.0], [1.0, 0.0, 2.0])
    assert out.shape == (3,)
    assert out[0] == pytest.approx(CRPS_AT_CENTER)
    assert out[1] == 0.0
    assert out[2] == pytest.approx(crps_gaussian(3.0, 1.0, 2.0))


@given(st.floats(-50, 50), st.floats(-50, 50),
       st.floats(0, 10).filter(lambda s: s == 0 or s > 1e-6))
@settings(max_examples=200, deadline=None)
def test_crps_nonnegative_and_symmetric(y, mu, sigma):
    value = crps_gaussian(y, mu, sigma)
    assert value >= 0.0
    mirrored = crps_gaussian(mu - (y - mu), mu, sigma)
    assert value == pytest.approx(mirrored, rel=1e-9, abs=1e-12)


def test_crps_bit_equal_to_scipy_stats_reference():
    rng = np.random.default_rng(12)
    y = rng.uniform(-8.0, 8.0, 20001)
    mean = rng.uniform(-1.0, 1.0, 20001)
    sigma = rng.uniform(0.05, 2.0, 20001)
    z = (y - mean) / sigma
    want = sigma * (z * (2.0 * norm.cdf(z) - 1.0) + 2.0 * norm.pdf(z)
                    - 1.0 / math.sqrt(math.pi))
    np.testing.assert_array_equal(crps_gaussian(y, mean, sigma), want)


def test_bundled_functions_do_not_import_scipy_stats():
    # scipy.stats costs about a second to import, and the GP stack half a
    # second; every CLI run imports the bundled functions, and only GP
    # runs need the GP stack.
    src = os.path.dirname(os.path.dirname(surrogate.__file__))
    heavy = ["scipy.stats", "dynens.gp_generator", "dynens.surrogate",
             "scipy.optimize", "scipy.linalg"]
    code = ("import sys, dynens.app.functions; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_crps_grows_with_miss_distance():
    misses = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
    vals = crps_gaussian(misses, 0.0, 1.0)
    assert np.all(np.diff(vals) > 0)


# -- input validation ---------------------------------------------------


def test_tell_rejects_nan():
    model = GaussianProcess(1)
    with pytest.raises(SurrogateError, match="finite"):
        model.tell([[0.0], [1.0]], [1.0, float("nan")])


def test_tell_rejects_shape_mismatch():
    model = GaussianProcess(2)
    with pytest.raises(SurrogateError, match="columns"):
        model.tell([[0.0]], [1.0])
    with pytest.raises(SurrogateError, match="inputs vs"):
        model.tell([[0.0, 1.0]], [1.0, 2.0])


def test_bad_construction_rejected():
    with pytest.raises(SurrogateError):
        GaussianProcess(0)
    with pytest.raises(SurrogateError):
        GaussianProcess(1, noise_variance=-1.0)
    with pytest.raises(SurrogateError):
        GaussianProcess(2, lengthscales=np.array([1.0, -1.0]))


def test_set_log_params_shape_checked():
    model = GaussianProcess(2)
    with pytest.raises(SurrogateError, match="log parameters"):
        model.set_log_params(np.zeros(2))


# -- exactness of the cached kernel -----------------------------------------


def uncached_squared_exponential(A, B, signal_variance, lengthscales):
    diff = (A[:, None, :] - B[None, :, :]) / lengthscales
    return signal_variance * np.exp(-0.5 * np.einsum("ijd,ijd->ij", diff, diff))


class UncachedGP(GaussianProcess):
    """The model before any kernel caching: K and Kf rebuilt from X for
    every θ, the per-dimension distances rebuilt in the gradient, and
    every parameter change dropping the factorization. The cached model
    must reproduce these formulas bit for bit."""

    def set_log_params(self, theta):
        theta = np.asarray(theta, dtype=float)
        self.signal_variance = float(np.exp(theta[0]))
        self.lengthscales = np.exp(theta[1:]).copy()
        self._cache = None

    def _factorization(self):
        if self._cache is not None:
            return self._cache
        m = self.n_train
        K = uncached_squared_exponential(self.X, self.X, self.signal_variance,
                                         self.lengthscales)
        K[np.diag_indices(m)] += self.noise_variance
        for jitter in (0.0,) + JITTER_LADDER:
            try:
                L = cholesky(K + jitter * np.eye(m), lower=True)
            except LinAlgError:
                continue
            self._cache = (L, cho_solve((L, True), self.y), jitter)
            return self._cache
        raise SurrogateError("covariance not factorizable")

    def lml_and_grad(self, theta):
        lml = self.log_marginal_likelihood(theta)
        L, alpha, _ = self._factorization()
        m = self.n_train
        Kf = uncached_squared_exponential(self.X, self.X, self.signal_variance,
                                          self.lengthscales)
        Kinv = cho_solve((L, True), np.eye(m))
        inner = np.outer(alpha, alpha) - Kinv
        grad = np.empty(self.input_dim + 1)
        grad[0] = 0.5 * np.sum(inner * Kf)
        for d in range(self.input_dim):
            D = ((self.X[:, d, None] - self.X[None, :, d])
                 / self.lengthscales[d]) ** 2
            grad[1 + d] = 0.5 * np.sum(inner * (Kf * D))
        return lml, grad


NOISE_LEVELS = (0.0, 1e-6, 1e-3)
LARGE_SEEDS = (7, 14, 15)  # one per noise level; 15 also has duplicates


def exactness_instance(seed):
    """d from 1 to 5, all three noise levels; the large instances have
    180 to 250 points, and every fifth repeats a third of its points,
    which at zero noise forces the jitter ladder."""
    rng = np.random.default_rng(1000 + seed)
    d = 1 + seed % 5
    m = int(rng.integers(180, 251) if seed in LARGE_SEEDS
            else rng.integers(2, 41))
    X = rng.uniform(0, 1, (m, d))
    duplicated = seed % 5 == 0 and m >= 3
    if duplicated:
        k = m // 3
        X[:k] = X[m - k:]
    y = np.sin(3.0 * X).sum(axis=1) + 0.01 * rng.normal(size=m)
    theta = rng.uniform(-1, 1, d + 1)
    queries = rng.uniform(0, 1, (9, d))
    return NOISE_LEVELS[seed % 3], X, y, theta, queries, duplicated


def two_solve_posterior(model, Xq, kernel=uncached_squared_exponential):
    """The posterior before the one-solve variance: by default the kernel
    from differences divided by the lengthscales, and var = s² - Σ Ks ⊙
    K⁻¹Ks with K⁻¹Ks by cho_solve."""
    L, alpha, _ = model._factorization()
    Ks = kernel(model.X, Xq, model.signal_variance, model.lengthscales)
    v = cho_solve((L, True), Ks)
    var = model.signal_variance - np.einsum("ij,ij->j", Ks, v)
    return surrogate.Posterior(Ks.T @ alpha, np.maximum(var, 0.0))


def squared_difference_kernel(A, B, signal_variance, lengthscales):
    sq = ((A[:, None, :] - B[None, :, :]) ** 2).reshape(-1, A.shape[1])
    K = signal_variance * np.exp(-0.5 * (sq @ lengthscales ** -2.0))
    return K.reshape(len(A), len(B))


class UncachedPotriGP(GaussianProcess):
    """The model's formulas written out without any cache: the squared
    differences and the kernel rebuilt from X for every θ and again in
    the gradient, K⁻¹ from dpotri, the variance from one triangular
    solve, and every parameter change dropping the factorization. The
    cached model must reproduce these bit for bit."""

    def set_log_params(self, theta):
        theta = np.asarray(theta, dtype=float)
        self.signal_variance = float(np.exp(theta[0]))
        self.lengthscales = np.exp(theta[1:]).copy()
        self._cache = None

    def _factorization(self):
        if self._cache is not None:
            return self._cache
        m = self.n_train
        K = squared_difference_kernel(self.X, self.X, self.signal_variance,
                                      self.lengthscales)
        K[np.diag_indices(m)] += self.noise_variance
        for jitter in (0.0,) + JITTER_LADDER:
            try:
                L = cholesky(K + jitter * np.eye(m), lower=True)
            except LinAlgError:
                continue
            self._cache = (L, cho_solve((L, True), self.y), jitter)
            return self._cache
        raise SurrogateError("covariance not factorizable")

    def lml_and_grad(self, theta):
        lml = self.log_marginal_likelihood(theta)
        L, alpha, _ = self._factorization()
        m, d = self.X.shape
        Kf = squared_difference_kernel(self.X, self.X, self.signal_variance,
                                       self.lengthscales)
        tril, info = dpotri(L, lower=1)
        assert info == 0
        Kinv = 2.0 * tril
        Kinv[np.diag_indices(m)] *= 0.5
        inner = Kf * (np.outer(alpha, alpha) - Kinv)
        sq = ((self.X[:, None, :] - self.X[None, :, :]) ** 2).reshape(-1, d)
        grad = np.empty(d + 1)
        grad[0] = 0.5 * np.sum(inner)
        grad[1:] = 0.5 * (inner.reshape(-1) @ sq) * self.lengthscales ** -2.0
        return lml, grad

    def posterior(self, Xq):
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        L, alpha, _ = self._factorization()
        Ks = squared_difference_kernel(self.X, Xq, self.signal_variance,
                                       self.lengthscales)
        v = solve_triangular(L, Ks, lower=True)
        var = self.signal_variance - np.einsum("ij,ij->j", v, v)
        return surrogate.Posterior(Ks.T @ alpha, np.maximum(var, 0.0))


def exactness_outputs(cls, seed, posterior=None):
    noise, X, y, theta, queries, duplicated = exactness_instance(seed)
    model = cls(X.shape[1], noise_variance=noise)
    model.tell(X, y)
    lml = model.log_marginal_likelihood(theta)
    jitter = model._factorization()[2]
    lml_g, grad = model.lml_and_grad(theta)
    post = (posterior or cls.posterior)(model, queries)
    local = model.train("local")
    theta_local = model.get_log_params()
    glob = theta_glob = None
    if len(X) <= 40:  # the global refinement is the same optimizer again
        glob = model.train("global", max_iter=8,
                           rng=np.random.default_rng(seed))
        theta_glob = model.get_log_params()
    return dict(lml=lml, jitter=jitter, lml_g=lml_g, grad=grad,
                mean=post.mean, var=post.variance, local=local,
                theta_local=theta_local, glob=glob, theta_glob=theta_glob,
                duplicated=duplicated, noise=noise)


@pytest.mark.parametrize("seed", range(20))
def test_cached_model_is_bit_identical_to_uncached_formulas(seed, caplog):
    with caplog.at_level(logging.ERROR, logger="dynens.surrogate"):
        got = exactness_outputs(GaussianProcess, seed)
        want = exactness_outputs(UncachedPotriGP, seed)
    if got["duplicated"] and got["noise"] == 0.0:
        assert got["jitter"] > 0.0
    for key in ("lml", "jitter", "lml_g", "local", "glob"):
        assert got[key] == want[key], key
    for key in ("grad", "mean", "var", "theta_local", "theta_glob"):
        assert np.array_equal(got[key], want[key]), key


# Against the formulas before dpotri every value moves only by rounding,
# which the conditioning of K amplifies: a backward-stable solve has a
# relative forward error of about eps * cond(K). The 20 instances reach
# 0.9 of that bound (grad, seed 0) with cond(K) from 2e2 to 4e12, so ten
# times it leaves room. A train may end at another point of a flat ridge;
# it must not end lower than the reference by more than 1e-9 relative.
OLD_FORMULA_COND_FACTOR = 10.0
OLD_FORMULA_TRAIN_RTOL = 1e-9


def condition_number(seed):
    noise, X, y, theta, _, _ = exactness_instance(seed)
    model = UncachedGP(X.shape[1], noise_variance=noise)
    model.tell(X, y)
    model.set_log_params(theta)
    L = model._factorization()[0]
    return np.linalg.cond(L @ L.T)


@pytest.mark.parametrize("seed", range(20))
def test_cached_model_agrees_with_the_formulas_before_dpotri(seed, caplog):
    with caplog.at_level(logging.ERROR, logger="dynens.surrogate"):
        got = exactness_outputs(GaussianProcess, seed)
        want = exactness_outputs(UncachedGP, seed,
                                 posterior=two_solve_posterior)
    assert got["jitter"] == want["jitter"]
    rtol = OLD_FORMULA_COND_FACTOR * np.finfo(float).eps * condition_number(seed)
    for key in ("lml", "grad", "mean", "var"):
        scale = max(1.0, float(np.max(np.abs(want[key]))))
        err = float(np.max(np.abs(np.subtract(got[key], want[key]))))
        assert err <= rtol * scale, (key, err / scale, rtol)
    for key in ("local", "glob"):
        if want[key] is not None:
            end = want[key].lml_end
            assert got[key].lml_end >= end - OLD_FORMULA_TRAIN_RTOL * abs(end), key


# -- the solves -------------------------------------------------------------


def test_gradient_solves_no_matrix_right_hand_side(monkeypatch):
    """K⁻¹ comes from dpotri on the factor: no solve in lml_and_grad has
    a matrix right-hand side, the m×m identity in particular."""
    rhs_shapes = []

    def recording(solve):
        def wrapped(a, b, *args, **kwargs):
            rhs_shapes.append(np.shape(b))
            return solve(a, b, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(surrogate, "cho_solve", recording(cho_solve))
    monkeypatch.setattr(surrogate, "solve_triangular",
                        recording(surrogate.solve_triangular))
    model, theta = random_instance(3)
    for step in range(3):
        model.lml_and_grad(theta + 0.1 * step)
    assert rhs_shapes == [(model.n_train,)] * 3


VARIANCE_CASES = [(1, 2, 1e-4, False), (12, 2, 0.0, True)] + [
    (30, d, 1e-4, False) for d in range(1, 6)]


@pytest.mark.parametrize("m,d,noise,duplicated", VARIANCE_CASES)
def test_one_solve_variance_matches_the_two_solve_form(m, d, noise,
                                                       duplicated):
    rng = np.random.default_rng([m, d])
    X = rng.uniform(0, 1, (m, d))
    if duplicated:
        X[:m // 3] = X[m - m // 3:]
    model = GaussianProcess(d, noise_variance=noise)
    model.tell(X, np.sin(3.0 * X).sum(axis=1))
    model.set_log_params(rng.uniform(-1, 1, d + 1))
    queries = np.vstack([X[:3], rng.uniform(-0.5, 1.5, (40, d))])
    _, var = model.posterior(queries)
    assert (model._factorization()[2] > 0.0) == duplicated
    # The same kernel, K⁻¹Ks by two triangular solves.
    _, want = two_solve_posterior(model, queries, kernel=squared_exponential)
    # Both subtract from s² a quantity in [0, s²]; rounding stays near
    # eps * s² even when the jitter path factorized K.
    np.testing.assert_allclose(var, want, rtol=0,
                               atol=1e-12 * model.signal_variance)


# -- the factorization cache ----------------------------------------------


@pytest.fixture
def factorized_params(monkeypatch):
    """Patches the module's Cholesky to log, per call, the parameters of
    the model registered in the returned dict under "model"."""
    seen = {"model": None, "params": []}
    real = surrogate.cholesky

    def counting(a, *args, **kwargs):
        model = seen["model"]
        seen["params"].append((model.signal_variance,
                               model.lengthscales.tobytes()))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(surrogate, "cholesky", counting)
    return seen


def cache_instance():
    X = np.random.default_rng(4).uniform(0, 1, (50, 3))
    return X, np.sin(3.0 * X).sum(axis=1), 1e-4


def fresh_lml(X, y, noise, theta):
    model = GaussianProcess(X.shape[1], noise_variance=noise)
    model.tell(X, y)
    return model.lml_and_grad(theta)


def test_local_train_factorizes_each_distinct_theta_once(factorized_params):
    X, y, noise = cache_instance()
    model = GaussianProcess(X.shape[1], noise_variance=noise)
    model.tell(X, y)
    factorized_params["model"] = model
    evaluated = []
    real_lml = model.log_marginal_likelihood

    def logging_lml(theta=None):
        value = real_lml(theta)
        evaluated.append((model.signal_variance, model.lengthscales.tobytes()))
        return value

    model.log_marginal_likelihood = logging_lml
    result = model.train("local")
    calls = factorized_params["params"]
    assert len(evaluated) == result.evaluations
    assert len(calls) == len(set(calls)) == len(set(evaluated))
    assert len(calls) < result.evaluations


def test_state_changes_refactorize_and_match_a_fresh_model(factorized_params):
    X, y, noise = cache_instance()
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1, 1, X.shape[1] + 1)
    model = GaussianProcess(X.shape[1], noise_variance=noise)
    model.tell(X[:40], y[:40])
    factorized_params["model"] = model
    calls = factorized_params["params"]

    def expect_one_factorization(X, y, noise, theta):
        fresh, fresh_grad = fresh_lml(X, y, noise, theta)
        before = len(calls)
        lml, grad = model.lml_and_grad(theta)
        assert len(calls) == before + 1
        assert lml == fresh
        assert np.array_equal(grad, fresh_grad)

    expect_one_factorization(X[:40], y[:40], noise, theta)
    before = len(calls)
    model.set_log_params(theta.copy())  # same θ: nothing to redo
    model.lml_and_grad(theta)
    assert len(calls) == before

    model.tell(X, y)
    expect_one_factorization(X, y, noise, theta)
    model.set_noise_variance(1e-2)
    expect_one_factorization(X, y, 1e-2, theta)
    theta = theta + 0.25
    expect_one_factorization(X, y, 1e-2, theta)


# -- the optimizer against the ascent it replaced ---------------------------


def reference_ascend(model, theta, lml, bounds, max_steps):
    """Projected gradient ascent with a backtracking line search: the local
    optimizer before L-BFGS-B, frozen as it was. Returns the final θ, its
    lml and the number of likelihood evaluations."""
    evals = 0
    step = 0.1
    for _ in range(max_steps):
        cur, grad = model.lml_and_grad(theta)
        evals += 1
        gmax = np.max(np.abs(grad))
        if gmax < 1e-8:
            break
        direction = grad / gmax  # bounded log-space move
        improved = False
        s = step
        while s > 1e-8:
            cand = np.clip(theta + s * direction, bounds[:, 0], bounds[:, 1])
            cand_lml = model.log_marginal_likelihood(cand)
            evals += 1
            if cand_lml > cur:
                theta, lml = cand, cand_lml
                step = min(s * 2.0, 1.0)
                improved = True
                break
            s *= 0.5
        if not improved:
            break
        if lml - cur < 1e-10:
            break
    model.set_log_params(theta)
    return theta, lml, evals


# The reference's worst case per refinement: LOCAL_MAX_STEPS gradient
# steps, each with up to 27 line-search trials (1.0 halved while > 1e-8).
REFERENCE_MAX_EVALS = surrogate.LOCAL_MAX_STEPS * (1 + 27)


def reference_local_train(model):
    """The model's local train with reference_ascend as its optimizer:
    (final lml, evaluations). The entry point lies inside the box here."""
    bounds = model.default_bounds()
    theta = model.get_log_params()
    lml = model.log_marginal_likelihood(theta)
    _, end, evals = reference_ascend(model, theta, lml, bounds,
                                     surrogate.LOCAL_MAX_STEPS)
    return max(end, lml), 1 + evals


def warm_start_instance(seed, m):
    """A local train as gp_active makes it: d = 3, noise 1e-4, a bump
    landscape, a seeded 40-draw global train on all but the last batch of
    16 points, then the full set told."""
    rng = np.random.default_rng([seed, m])
    X = rng.uniform(0.0, 1.0, (m, 3))
    y = make_objective(3, seed=seed)(X)
    model = GaussianProcess(3, noise_variance=1e-4)
    model.tell(X[:-16], y[:-16])
    model.train("global", max_iter=40, rng=np.random.default_rng([seed, m]))
    model.tell(X, y)
    return model


def projected_gradient(model):
    """The lml gradient at the model's θ with the components that push
    out of the default box zeroed."""
    theta = model.get_log_params()
    bounds = model.default_bounds()
    _, grad = model.lml_and_grad(theta)
    grad = np.where(theta <= bounds[:, 0] + 1e-9, np.maximum(grad, 0.0), grad)
    return np.where(theta >= bounds[:, 1] - 1e-9, np.minimum(grad, 0.0), grad)


WARM_STARTS = [(seed, m) for seed in range(3) for m in range(32, 241, 16)]


def test_local_train_ends_at_or_above_the_reference_ascent():
    """L-BFGS-B may climb to another local maximum than the ascent did, so
    the gate is statistical: at or above the reference's lml (up to 1e-9
    relative) on at least 95% of the warm starts, with a median gain of
    at least zero, and wherever it ends lower it ends at a stationary
    point of the box, not on a budget."""
    gains, below = [], []
    for seed, m in WARM_STARTS:
        model = warm_start_instance(seed, m)
        want, _ = reference_local_train(copy.deepcopy(model))
        got = model.train("local").lml_end
        gains.append(got - want)
        if got < want - 1e-9 * max(1.0, abs(want)):
            below.append((seed, m))
            assert np.max(np.abs(projected_gradient(model))) < 1e-4, (seed, m)
    assert len(below) <= 0.05 * len(WARM_STARTS), below
    assert np.median(gains) >= 0.0


def test_warm_local_train_needs_a_tenth_of_the_reference_budget():
    model = warm_start_instance(0, 200)
    _, reference_evals = reference_local_train(copy.deepcopy(model))
    result = model.train("local")
    assert result.evaluations <= REFERENCE_MAX_EVALS // 10
    assert 3 * result.evaluations <= reference_evals


def test_evaluation_cap_is_no_looser_than_the_reference(monkeypatch):
    # A refinement overruns MAX_EVALS by at most one L-BFGS-B iteration:
    # two line searches of 20 evaluations.
    assert surrogate.MAX_EVALS + 40 <= REFERENCE_MAX_EVALS
    model, theta = random_instance(26)  # 46 evaluations uncapped
    model.set_log_params(theta)
    uncapped = copy.deepcopy(model).train("local").evaluations
    monkeypatch.setattr(surrogate, "MAX_EVALS", 3)
    capped = model.train("local")
    assert capped.evaluations <= 1 + 3 + 40 < uncapped
    assert capped.lml_end >= capped.lml_start


def test_local_train_from_outside_the_box():
    """Entry θ far past the top of the box: the train clips into the box,
    ends inside it above the entry lml, and counts every likelihood
    evaluation it made."""
    X, y, noise = cache_instance()
    model = GaussianProcess(X.shape[1], noise_variance=noise)
    model.tell(X, y)
    bounds = model.default_bounds()
    entry = bounds[:, 1] + 3.0
    lml_entry = model.log_marginal_likelihood(entry)
    calls = []
    real_lml = model.log_marginal_likelihood

    def counting_lml(theta=None):
        calls.append(theta)
        return real_lml(theta)

    model.log_marginal_likelihood = counting_lml
    result = model.train("local")
    theta = model.get_log_params()
    assert result.lml_start == lml_entry
    assert result.lml_end >= lml_entry
    assert np.all(theta >= bounds[:, 0] - 1e-12)
    assert np.all(theta <= bounds[:, 1] + 1e-12)
    assert result.evaluations == len(calls)
    assert real_lml() == pytest.approx(result.lml_end, abs=1e-9)
