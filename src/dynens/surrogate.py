"""Exact Gaussian-process regression for the online surrogate.

Anisotropic squared-exponential kernel, fixed observation noise, Cholesky
factorization with a jitter ladder, and likelihood-based hyperparameter
training in log space: bounded L-BFGS-B on the marginal likelihood and its
analytic gradient, optionally after a seeded random search of the bounds
box. Small and dense on purpose: ensembles at the scales this targets
retrain on hundreds of points, not tens of thousands.

Every kernel, on the training set or across to query points, comes from
one formula: the squared input differences, one row per pair of points,
times the inverse squared lengthscales give r², and k = σ² exp(-r²/2).

Training evaluates the likelihood at tens to hundreds of parameter vectors
θ on one training set, so the model caches at two levels. Per ``tell``: the
squared differences (X_i - X_j)², an (m·m, d) array. Per θ: the Cholesky
factor, alpha and the noise-free kernel, kept until the data, the noise or
θ actually changes (setting the same θ again keeps them). Beyond the factor
itself the caches hold m²·d + m² doubles, about 1.8 MB at m = 240 and
d = 3. From the factor alone, the gradient takes K⁻¹ from LAPACK's dpotri
and the posterior variance needs one triangular solve.

The cached model and the same formulas evaluated without any cache agree
bit for bit. Against the formulas before this layout (differences divided
by the lengthscales, K⁻¹ and the variance by two triangular solves each)
the likelihood, gradient and posterior agree within the tolerances that
tests/test_surrogate.py states.

At these sizes the OpenBLAS thread pools numpy and scipy bundle cost CPU
for no wall time, and their threads stall when other processes hold the
cores; ``one_blas_thread`` pins every OpenBLAS in the process to one
thread for as long as a block runs.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize
from scipy.special import ndtr

log = logging.getLogger(__name__)

JITTER_LADDER = tuple(10.0 ** e for e in range(-10, -5))  # 1e-10 .. 1e-6
LOCAL_MAX_STEPS = 50  # L-BFGS-B iterations per refinement
# A refinement stops at the end of the iteration in which its likelihood
# evaluations pass MAX_EVALS; one iteration makes at most 40 (two line
# searches of 20), so a refinement makes at most 190.
MAX_EVALS = 150


class SurrogateError(Exception):
    pass


@dataclass(frozen=True)
class TrainMethod:
    """A training request: 'global' with a restart budget, or 'local'."""

    name: str
    max_iter: int = LOCAL_MAX_STEPS

    def __post_init__(self):
        if self.name not in ("global", "local"):
            raise SurrogateError(f"unknown train method {self.name!r}")
        if self.max_iter < 1:
            raise SurrogateError("max_iter must be >= 1")


class Posterior(NamedTuple):
    mean: np.ndarray
    variance: np.ndarray


@dataclass
class TrainResult:
    method: str
    lml_start: float
    lml_end: float
    evaluations: int


def squared_exponential(A: np.ndarray, B: np.ndarray,
                        signal_variance: float,
                        lengthscales: np.ndarray) -> np.ndarray:
    """k(a, b) = signal_variance * exp(-1/2 sum_d (a_d - b_d)^2 / l_d^2)."""
    K = _kernel_of_squared(_squared_differences(A, B), signal_variance,
                           lengthscales)
    return K.reshape(len(A), len(B))


def _squared_differences(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(a_i - b_j)^2 per dimension, one row per pair (i, j) in C order."""
    return ((A[:, None, :] - B[None, :, :]) ** 2).reshape(-1, A.shape[1])


def _kernel_of_squared(sq: np.ndarray, signal_variance: float,
                       lengthscales: np.ndarray) -> np.ndarray:
    """The kernel at each row of squared differences: r² = sq @ l⁻²."""
    return signal_variance * np.exp(-0.5 * (sq @ lengthscales ** -2.0))


def crps_gaussian(y, mean, sigma):
    """Closed-form CRPS of a Gaussian predictive distribution.

    sigma * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)) with z = (y - mean)/sigma;
    a zero-sigma prediction degenerates to the absolute error.
    """
    y, mean, sigma = np.broadcast_arrays(
        np.asarray(y, dtype=float),
        np.asarray(mean, dtype=float),
        np.asarray(sigma, dtype=float),
    )
    err = np.abs(y - mean)
    pos = sigma > 0
    z = np.divide(y - mean, sigma, out=np.zeros_like(err), where=pos)
    pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
    term = z * (2.0 * ndtr(z) - 1.0) + 2.0 * pdf - 1.0 / math.sqrt(math.pi)
    out = np.where(pos, sigma * term, err)
    return out if out.ndim else float(out)


class GaussianProcess:
    """GP regressor with trained signal variance and per-dimension
    lengthscales; the observation noise is fixed at construction."""

    def __init__(self, input_dim: int, noise_variance: float = 0.0,
                 signal_variance: float = 1.0,
                 lengthscales: np.ndarray | None = None):
        if input_dim < 1:
            raise SurrogateError("input_dim must be >= 1")
        if noise_variance < 0:
            raise SurrogateError("noise_variance must be >= 0")
        self.input_dim = input_dim
        self.noise_variance = float(noise_variance)
        self.signal_variance = float(signal_variance)
        if lengthscales is None:
            lengthscales = np.ones(input_dim)
        self.lengthscales = np.asarray(lengthscales, dtype=float).copy()
        if self.lengthscales.shape != (input_dim,) or np.any(self.lengthscales <= 0):
            raise SurrogateError("lengthscales must be positive, one per dimension")
        self.X = np.empty((0, input_dim))
        self.y = np.empty(0)
        self._sq = np.empty((0, input_dim))  # (X_i - X_j)², set by tell
        self._cache: tuple | None = None  # (L, alpha, jitter) at this θ
        self._kernel: np.ndarray | None = None  # Kf, same θ
        self._short = np.zeros(input_dim, dtype=bool)

    # -- data ------------------------------------------------------------

    @property
    def n_train(self) -> int:
        return len(self.y)

    def set_noise_variance(self, value: float) -> None:
        if value < 0:
            raise SurrogateError("noise_variance must be >= 0")
        self.noise_variance = float(value)
        self._cache = None

    def tell(self, X: np.ndarray, y: np.ndarray) -> None:
        """Replace the training set (full refresh, not incremental).

        Caches the squared differences (X_i - X_j)² (m·m·d doubles) that
        every kernel evaluation on this set starts from, and drops the
        factorization.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[1] != self.input_dim:
            raise SurrogateError(
                f"X has {X.shape[1]} columns, model expects {self.input_dim}"
            )
        if X.shape[0] != y.shape[0]:
            raise SurrogateError(f"{X.shape[0]} inputs vs {y.shape[0]} outputs")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise SurrogateError("training data must be finite (filter NaN first)")
        self.X = X.copy()
        self.y = y.copy()
        self._sq = _squared_differences(X, X)
        self._cache = None

    # -- parameters ------------------------------------------------------

    def get_log_params(self) -> np.ndarray:
        return np.log(np.concatenate(([self.signal_variance], self.lengthscales)))

    def set_log_params(self, theta: np.ndarray) -> None:
        """Set the parameters from log space. Parameters exactly equal to
        the current ones keep the factorization: training re-enters the
        θ its line search just accepted."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.input_dim + 1,):
            raise SurrogateError(
                f"expected {self.input_dim + 1} log parameters, got {theta.shape}"
            )
        signal_variance = float(np.exp(theta[0]))
        lengthscales = np.exp(theta[1:])
        if (signal_variance == self.signal_variance
                and np.array_equal(lengthscales, self.lengthscales)):
            return
        self.signal_variance = signal_variance
        self.lengthscales = lengthscales
        self._cache = None

    # -- inference -------------------------------------------------------

    def _factorization(self):
        """Cholesky of K + noise*I, adding the first jitter level that works.

        Also leaves the noise-free kernel of this θ in ``_kernel`` for
        ``lml_and_grad``.
        """
        if self._cache is not None:
            return self._cache
        m = self.n_train
        Kf = _kernel_of_squared(self._sq, self.signal_variance,
                                self.lengthscales).reshape(m, m)
        K = Kf.copy()
        K[np.diag_indices(m)] += self.noise_variance
        last = None
        for jitter in (0.0,) + JITTER_LADDER:
            try:
                L = cholesky(K + jitter * np.eye(m) if jitter else K,
                             lower=True, check_finite=False)
            except LinAlgError as exc:
                last = exc
                continue
            alpha = cho_solve((L, True), self.y, check_finite=False)
            self._kernel = Kf
            self._cache = (L, alpha, jitter)
            return self._cache
        raise SurrogateError(
            f"covariance not factorizable even at jitter {JITTER_LADDER[-1]}"
        ) from last

    def posterior(self, Xq: np.ndarray) -> Posterior:
        """Predictive mean and latent-function variance at query points.

        With no data this is the prior: zero mean, signal_variance.
        """
        Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
        if Xq.shape[1] != self.input_dim:
            raise SurrogateError(
                f"query has {Xq.shape[1]} columns, model expects {self.input_dim}"
            )
        if self.n_train == 0:
            return Posterior(np.zeros(len(Xq)),
                             np.full(len(Xq), self.signal_variance))
        L, alpha, _ = self._factorization()
        Ks = squared_exponential(self.X, Xq, self.signal_variance,
                                 self.lengthscales)
        mean = Ks.T @ alpha
        v = solve_triangular(L, Ks, lower=True)
        var = self.signal_variance - np.einsum("ij,ij->j", v, v)
        return Posterior(mean, np.maximum(var, 0.0))

    def log_marginal_likelihood(self, theta: np.ndarray | None = None) -> float:
        if theta is not None:
            self.set_log_params(theta)
        if self.n_train == 0:
            raise SurrogateError("no training data")
        L, alpha, _ = self._factorization()
        return float(
            -0.5 * self.y @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * self.n_train * math.log(2.0 * math.pi)
        )

    def lml_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Likelihood and its gradient w.r.t. log parameters
        (log signal_variance, log lengthscale_1..d). Noise is fixed and has
        no gradient entry."""
        lml = self.log_marginal_likelihood(theta)
        L, alpha, _ = self._factorization()
        # dpotri fills the lower triangle with K⁻¹'s and keeps L's zeros
        # above. Summed against weights symmetric in (i, j), 2·tril - diag
        # stands in for the whole inverse.
        Kinv, _ = dpotri(L, lower=1)
        Kinv *= 2.0
        Kinv[np.diag_indices(self.n_train)] *= 0.5
        # M_ij = Kf_ij (α_i α_j - K⁻¹_ij); dKf/dlog l_d = Kf ⊙ sq_d / l_d².
        M = np.outer(alpha, alpha)
        M -= Kinv
        M *= self._kernel
        grad = np.empty(self.input_dim + 1)
        grad[0] = 0.5 * np.sum(M)
        grad[1:] = 0.5 * (M.reshape(-1) @ self._sq) * self.lengthscales ** -2.0
        return lml, grad

    # -- training --------------------------------------------------------

    def default_bounds(self) -> np.ndarray:
        """Log-space box: signal variance within 1e-4..1e4 of var(y),
        lengthscales within 1e-2..10 of each input range."""
        var_y = float(np.var(self.y)) if self.n_train else 1.0
        var_y = max(var_y, 1e-8)
        bounds = [(math.log(1e-4 * var_y), math.log(1e4 * var_y))]
        for d in range(self.input_dim):
            if self.n_train >= 2:
                rng_d = float(np.ptp(self.X[:, d]))
            else:
                rng_d = 0.0
            rng_d = max(rng_d, 1e-8)
            bounds.append((math.log(1e-2 * rng_d), math.log(10.0 * rng_d)))
        return np.array(bounds)

    def train(self, method: str = "global", max_iter: int = 120,
              bounds: np.ndarray | None = None,
              rng: np.random.Generator | None = None) -> TrainResult:
        """Improve hyperparameters by marginal likelihood.

        'global': max_iter seeded uniform draws in the log-space bounds box
        (plus the current parameters), then L-BFGS-B refinement of the best.
        'local': L-BFGS-B refinement from the current values, clipped into
        the box, for at most min(max_iter, LOCAL_MAX_STEPS) iterations.
        Never finishes worse than it started (up to 1e-9). ``evaluations``
        counts every likelihood evaluation, with or without gradient.
        """
        if self.n_train == 0:
            raise SurrogateError("no training data")
        if bounds is None:
            bounds = self.default_bounds()
        bounds = np.asarray(bounds, dtype=float)
        if bounds.shape != (self.input_dim + 1, 2):
            raise SurrogateError(f"bounds must be ({self.input_dim + 1}, 2)")
        theta_entry = self.get_log_params()
        lml_entry = self.log_marginal_likelihood(theta_entry)
        evals = 1
        # Search inside the box even when the entry point sits outside it.
        theta0 = np.clip(theta_entry, bounds[:, 0], bounds[:, 1])
        if np.array_equal(theta0, theta_entry):
            lml0 = lml_entry
        else:
            lml0 = self.log_marginal_likelihood(theta0)
            evals += 1

        if method == "global":
            if rng is None:
                rng = np.random.default_rng()
            best_theta, best_lml = theta0, lml0
            for _ in range(max_iter):
                cand = rng.uniform(bounds[:, 0], bounds[:, 1])
                lml = self.log_marginal_likelihood(cand)
                evals += 1
                if lml > best_lml:
                    best_theta, best_lml = cand, lml
            theta, lml, n = self._maximize(best_theta, bounds,
                                           LOCAL_MAX_STEPS)
            evals += n
        elif method == "local":
            theta, lml, n = self._maximize(theta0, bounds,
                                           min(max_iter, LOCAL_MAX_STEPS))
            evals += n
        else:
            raise SurrogateError(f"unknown train method {method!r}")

        if lml >= lml_entry:
            self.set_log_params(theta)
        else:
            # Clipping into the box cost more than the search recovered;
            # keep what we walked in with.
            self.set_log_params(theta_entry)
            lml = lml_entry
        self._warn_on_tiny_lengthscales()
        return TrainResult(method, lml_entry, lml, evals)

    def _maximize(self, theta, bounds, max_steps):
        """Bounded L-BFGS-B on -lml from theta, stopping once an iteration
        gains less than 1e-10 of the lml. Returns the best θ it evaluated,
        that θ's lml and the number of evaluations."""
        seen = []  # (lml, θ) per evaluation

        def negated(t):
            lml, grad = self.lml_and_grad(t)
            seen.append((lml, t.copy()))
            return -lml, -grad

        minimize(negated, theta, jac=True, method="L-BFGS-B", bounds=bounds,
                 options={"maxiter": max_steps, "maxfun": MAX_EVALS,
                          "ftol": 1e-10})
        lml, theta = max(seen, key=lambda e: e[0])
        return theta, lml, len(seen)

    def _warn_on_tiny_lengthscales(self):
        """Warn for each dimension whose lengthscale is under a tenth of
        its input range, unless it already was at the previous train."""
        if self.n_train < 2:
            return
        ranges = np.ptp(self.X, axis=0)
        short = (ranges > 0) & (self.lengthscales < ranges / 10.0)
        for d in np.flatnonzero(short & ~self._short):
            log.warning(
                "lengthscale %d = %.3g is under a tenth of the input "
                "range %.3g; the fit may be chasing noise",
                d, self.lengthscales[d], ranges[d],
            )
        self._short = short

    # -- metrics ---------------------------------------------------------

    def rmse(self, X: np.ndarray, y: np.ndarray) -> float:
        """Root-mean-square error of the posterior mean on (X, y)."""
        y = np.asarray(y, dtype=float).ravel()
        mean, _ = self.posterior(X)
        if len(y) != len(mean):
            raise SurrogateError(f"{len(mean)} predictions vs {len(y)} targets")
        if len(y) == 0:
            raise SurrogateError("rmse of an empty set")
        return float(np.sqrt(np.mean((mean - y) ** 2)))


# The thread-count getter and setter an OpenBLAS exports: numpy's bundled
# build, scipy's bundled build, a system build.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_openblas = None


def openblas_thread_calls() -> list[tuple]:
    """(get, set) for each OpenBLAS mapped into this process.

    Found once per process, from the library paths in /proc/self/maps, and
    cached: a forked worker inherits the list. Empty where there is no
    /proc or no OpenBLAS.
    """
    global _openblas
    if _openblas is None:
        try:
            with open("/proc/self/maps") as maps:
                paths = {fields[5].strip() for fields in
                         (line.split(None, 5) for line in maps)
                         if len(fields) == 6}
        except OSError:
            paths = set()
        calls = []
        for path in sorted(p for p in paths
                           if "openblas" in os.path.basename(p)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _OPENBLAS_THREAD_CALLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    calls.append((get, _pool_sparing(lib, set_)))
                    break
        _openblas = calls
    return _openblas


def _pool_sparing(lib, set_):
    """The library's setter, except while its thread pool is down.

    A fork stops the pool, and the setter restarts it before it stores the
    count; each new thread then spins for tens of milliseconds of CPU
    before it sleeps, for nothing when the count is one. While the pool is
    down and the count fits the pool's size, storing the count
    (blas_cpu_number) is all of the setter's work that matters: the pool
    starts again, as it would have anyway, at the first call that runs on
    more than one thread. A build that does not export those variables
    gets the setter.
    """
    try:
        count = ctypes.c_int.in_dll(lib, "blas_cpu_number")
        pool_size = ctypes.c_int.in_dll(lib, "blas_num_threads")
        pool_up = ctypes.c_int.in_dll(lib, "blas_server_avail")
    except ValueError:
        return set_

    def set_threads(n: int) -> None:
        if pool_up.value or n > pool_size.value:
            set_(n)
        else:
            count.value = n
    return set_threads


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS in the process on one thread, and
    put back the counts found on entry however the block ends.

    The setter acts on the whole process, not on the calling thread: when
    the generator runs as a thread of the manager (gen_on_manager), the
    manager also sees one thread while the block runs.
    """
    calls = openblas_thread_calls()
    before = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(calls, before):
            set_(n)
