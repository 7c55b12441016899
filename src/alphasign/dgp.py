"""Synthetic panels: factor paths, time-varying loadings, cross-sectionally
dependent errors, and sparse intercept signals.

Three example designs are provided. Example 1 is a one-factor model whose
loading follows a smooth logistic ramp in rescaled time. Examples 2 and 3
use three factors; example 2 drives the loadings with a latent AR state,
example 3 mixes the logistic ramp with constant offsets. Factor paths are
AR(1) with a GARCH-type conditional variance, simulated with a 50-step
burn-in from fixed initial conditions.

Reproducibility depends on a fixed draw order from the supplied
generator. `assemble_panel` consumes: factor innovations (one path per
factor, in listed order), then the latent loading state (example 2 only),
then the error draws. `simulate_panel` appends the intercept support and
levels after the errors. Each generator function documents its own
internal order.

The errors' covariance 0.5^|i-j| is an AR(1) across assets, so the
"normal", "t" and "mixture" draws color their T x N normals by that
recursion, run in column blocks of `_AR_BLOCK` (32) over the normals
themselves, in O(T N B) work. The divisor, the factor part and the
intercept are then applied in place, so such a draw allocates one T x N
array, its panel, and no N x N matrix. Only "icm" draws form one: the
symmetric root of the covariance, cached per N. The intercept is one
N-vector seen as T equal rows (`gen_alpha`), so a kept `SimulatedPanel`
holds one T x N array too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blas import one_blas_thread
from .errors import ContractError, _check_count

BURN_IN = 50
ERROR_AR_RHO = 0.5

ERROR_SCENARIO_KINDS = ("normal", "t", "mixture", "icm")


@dataclass(frozen=True)
class FactorSpec:
    """AR(1) factor with GARCH-type conditional variance.

    f_t - mean = ar_coef (f_{t-1} - mean) + sqrt(h_t) phi_t, with
    h_t = garch_omega + garch_beta h_{t-1} + garch_alpha h_{t-1} phi_{t-1}^2
    and standard normal innovations phi_t.
    """

    mean: float
    ar_coef: float
    garch_omega: float
    garch_beta: float
    garch_alpha: float

    def __post_init__(self):
        if self.garch_omega <= 0.0:
            raise ContractError("garch_omega must be positive")
        if self.garch_beta < 0.0 or self.garch_alpha < 0.0:
            raise ContractError("garch coefficients must be non-negative")
        if self.garch_beta + self.garch_alpha >= 1.0:
            raise ContractError(
                "garch_beta + garch_alpha must be < 1 for a stationary variance"
            )
        if abs(self.ar_coef) >= 1.0:
            raise ContractError("ar_coef must satisfy |ar_coef| < 1")

    @property
    def stationary_variance(self) -> float:
        """Fixed point of the conditional-variance recursion."""
        return self.garch_omega / (1.0 - self.garch_beta - self.garch_alpha)


MARKET = FactorSpec(0.34, 0.05, 0.32, 0.67, 0.13)
SMB = FactorSpec(0.04, 0.07, 0.33, 0.51, 0.03)
HML = FactorSpec(0.06, 0.04, 0.26, 0.72, 0.05)

EXAMPLE_FACTORS = {1: (MARKET,), 2: (MARKET, SMB, HML), 3: (MARKET, SMB, HML)}

# (a_j, b_j) per factor: example 2 loadings are a + b z_t with a latent
# state z; example 3 loadings are a G(10 t/T) + b with the logistic ramp G.
EXAMPLE2_LOADING_PARAMS = ((0.8, 0.3), (0.5, 0.1), (0.6, 0.2))
EXAMPLE3_LOADING_PARAMS = ((0.5, 0.5), (0.1, 0.5), (0.2, 0.5))


@dataclass(frozen=True)
class ErrorScenario:
    """Cross-sectional error law with AR(1)-in-index covariance 0.5^|i-j|.

    kind: "normal" (Gaussian), "t" (multivariate t with t_dof degrees of
    freedom and the same scatter), "mixture" (variance-standardized
    contamination: with probability mixture_kappa a unit-scale draw, else
    a 3x-scale draw), or "icm" (independent standardized t innovations
    colored by the symmetric square root of the covariance).

    The first three share one Gaussian core g, drawn by the AR(1)
    recursion g_0 = z_0, g_i = 0.5 g_{i-1} + sqrt(0.75) z_i across assets
    in blocks of `_AR_BLOCK` columns, which is the law of z @ L.T for the
    covariance's Cholesky factor L without forming L. Only "icm" forms an
    N x N matrix, its root.
    """

    kind: str = "normal"
    mixture_kappa: float = 0.9
    t_dof: int = 3

    def __post_init__(self):
        if self.kind not in ERROR_SCENARIO_KINDS:
            raise ContractError(
                f"unknown error scenario {self.kind!r}; choose from {ERROR_SCENARIO_KINDS}"
            )
        if not 0.0 < self.mixture_kappa <= 1.0:
            raise ContractError("mixture_kappa must lie in (0, 1]")
        if self.t_dof < 3:
            raise ContractError("t_dof must be >= 3 so the variance exists")


@dataclass(frozen=True)
class AlphaSpec:
    """Sparse intercept signal.

    sparsity (an integer >= 0) assets are picked uniformly without
    replacement; each gets an intercept drawn uniformly from
    (0, strength * sqrt(log N / (T * s))).
    mode "constant" keeps that level at every t; mode "over_T" divides it
    by T.
    """

    sparsity: int = 0
    strength: float = 0.0
    mode: str = "constant"

    def __post_init__(self):
        _check_count("sparsity", self.sparsity, 0)
        if not math.isfinite(self.strength) or self.strength < 0.0:
            raise ContractError(f"strength must be finite and >= 0, got {self.strength}")
        if self.mode not in ("constant", "over_T"):
            raise ContractError(f"mode must be 'constant' or 'over_T', got {self.mode!r}")

    def upper_bound(self, N: int, T: int) -> float:
        """Upper end of the per-asset intercept distribution."""
        if self.sparsity == 0:
            return 0.0
        return self.strength * math.sqrt(math.log(N) / (T * self.sparsity))


def logistic_g(z, kappa1: float, kappa2: float):
    """Logistic ramp G(z) = 1 / (1 + exp(-kappa1 (z - kappa2)))."""
    return 1.0 / (1.0 + np.exp(-kappa1 * (np.asarray(z, dtype=float) - kappa2)))


def ar_garch_path(spec: FactorSpec, T: int, rng, burn_in: int = BURN_IN) -> np.ndarray:
    """Simulate one factor path of length T after a burn-in.

    The recursion starts from f = 0 and h = 1 at the pre-sample origin and
    consumes burn_in + T + 1 standard normals: one for the initial lagged
    innovation, then one per step.
    """
    if T < 1:
        raise ContractError("T must be >= 1")
    if burn_in < 0:
        raise ContractError("burn_in must be >= 0")
    total = burn_in + T
    out = np.empty(total)
    f_prev, h_prev = 0.0, 1.0
    # One draw gives the stream that one scalar draw per step gave, as floats.
    draws = rng.standard_normal(total + 1).tolist()
    phi_prev = draws[0]
    for t in range(total):
        h = (
            spec.garch_omega
            + spec.garch_beta * h_prev
            + spec.garch_alpha * h_prev * phi_prev**2
        )
        phi = draws[t + 1]
        f = spec.mean + spec.ar_coef * (f_prev - spec.mean) + math.sqrt(h) * phi
        out[t] = f
        f_prev, h_prev, phi_prev = f, h, phi
    return out[burn_in:]


def latent_state_path(T: int, rng, burn_in: int = BURN_IN) -> np.ndarray:
    """Latent AR(1) state for example-2 loadings.

    z_t = 0.5 z_{t-1} + sigma_t eps_t with sigma_t^2 = 0.1 + 0.3 sigma_{t-1}^2,
    started from z = 0 and sigma^2 = 1; consumes burn_in + T standard normals.
    """
    total = burn_in + T
    z = np.empty(total)
    z_prev, s2_prev = 0.0, 1.0
    for t, eps in enumerate(rng.standard_normal(total).tolist()):
        s2 = 0.1 + 0.3 * s2_prev
        z_t = 0.5 * z_prev + math.sqrt(s2) * eps
        z[t] = z_t
        z_prev, s2_prev = z_t, s2
    return z[burn_in:]


def gen_loadings(example: int, T: int, rng) -> tuple[np.ndarray, np.ndarray | None]:
    """Loading array of shape (p, T) plus the latent state (example 2).

    Loadings carry no asset dependence in any example, so every asset
    shares this array. Only example 2 consumes randomness (its latent
    state path).
    """
    if example not in EXAMPLE_FACTORS:
        raise ContractError(f"example must be 1, 2 or 3, got {example}")
    u = np.arange(1, T + 1) / T
    state = None
    if example == 1:
        base = logistic_g(10.0 * u, 2.0, 2.0)[None, :]
    elif example == 2:
        state = latent_state_path(T, rng)
        base = np.stack([a + b * state for a, b in EXAMPLE2_LOADING_PARAMS])
    else:
        ramp = logistic_g(10.0 * u, 2.0, 2.0)
        base = np.stack([a * ramp + b for a, b in EXAMPLE3_LOADING_PARAMS])
    return base, state


def error_covariance(N: int) -> np.ndarray:
    """The N x N cross-sectional covariance 0.5^|i-j|."""
    idx = np.arange(N)
    return ERROR_AR_RHO ** np.abs(idx[:, None] - idx[None, :])


# Columns per block of the AR(1) recursion. Per block the product costs
# about B flops per entry and the Python loop one call, so time is flat
# from 16 to 32 and rises on either side: the recursion over N = 1000,
# T = 600 took 2.6 ms at B = 16-32, 4.3 at 8 and 3.2 at 64; over N = 200,
# T = 350, 0.19-0.20 ms at 16-32 and 0.24-0.26 at 8 and 64 (one thread,
# 2-vCPU VM).
_AR_BLOCK = 32


def _ar_block_matrix() -> np.ndarray:
    """The (B, B + 1) map from (g_{a-1}, z_a .. z_{a+B-1}) to g_a .. g_{a+B-1}.

    Row k is the carry rho^(k+1), then sqrt(1 - rho^2) rho^(k-j) for the
    block's columns j <= k. A shorter last block of b columns uses the
    leading b x (b + 1) corner."""
    rho = ERROR_AR_RHO
    k = np.arange(_AR_BLOCK)
    lag = k[:, None] - k[None, :]
    inner = np.where(lag >= 0, math.sqrt(1.0 - rho * rho) * rho ** np.maximum(lag, 0), 0.0)
    out = np.column_stack([rho ** (k + 1), inner])
    out.setflags(write=False)
    return out


_AR_BLOCK_MATRIX = _ar_block_matrix()


def _ar_recursion(z: np.ndarray) -> np.ndarray:
    """Color the T x N normals z across assets, in place, and return z.

    g_0 = z_0 and g_i = rho g_{i-1} + sqrt(1 - rho^2) z_i, so every row has
    covariance rho^|i-j| = error_covariance(N), the law of z @ L.T with L
    its Cholesky factor. Column 0 stays z_0 bit for bit; columns 1 .. N-1
    go in blocks of _AR_BLOCK, each one product of the block and the
    column before it with _AR_BLOCK_MATRIX, written back over the block.
    The work is O(T N B) and the only other array is one T x B buffer."""
    T, N = z.shape
    buf = np.empty((T, min(_AR_BLOCK, N - 1)))
    for a in range(1, N, _AR_BLOCK):
        b = min(_AR_BLOCK, N - a)
        out = buf[:, :b]
        np.matmul(z[:, a - 1:a + b], _AR_BLOCK_MATRIX[:b, :b + 1].T, out=out)
        z[:, a:a + b] = out
    return z


@lru_cache(maxsize=8)
@one_blas_thread()
def _icm_root(N: int) -> np.ndarray:
    """Symmetric square root of error_covariance(N), for "icm" draws only,
    factored at one BLAS thread: every later draw at this N uses it, so it
    must not depend on the thread count of whichever call came first."""
    vals, vecs = np.linalg.eigh(error_covariance(N))
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    root.setflags(write=False)
    return root


def gen_errors(scenario: ErrorScenario, N: int, T: int, rng) -> np.ndarray:
    """T x N error draws under the given scenario.

    Draw order: "normal" uses T*N standard normals; "t" draws the same
    normals then T chi-square divisors; "mixture" draws the normals then T
    uniforms for component picks (so kappa = 1 reproduces "normal"
    exactly); "icm" draws T*N standardized t innovations.

    "normal", "t" and "mixture" color the normals by the AR(1) recursion
    across assets (`_ar_recursion`, in column blocks of _AR_BLOCK) and
    scale them in place, so the draw holds one T x N array and no N x N
    matrix. Only "icm" forms one: the symmetric root of the covariance,
    cached per N.
    """
    if N < 1 or T < 1:
        raise ContractError("N and T must be >= 1")
    if scenario.kind == "icm":
        e = rng.standard_t(scenario.t_dof, size=(T, N)) / math.sqrt(scenario.t_dof)
        return e @ _icm_root(N)
    g = _ar_recursion(rng.standard_normal(size=(T, N)))
    if scenario.kind == "normal":
        return g
    if scenario.kind == "t":
        w = rng.chisquare(scenario.t_dof, size=T)
        g /= np.sqrt(w / scenario.t_dof)[:, None]
        return g
    # mixture: scale contaminated rows by 3, then standardize the variance
    picks = rng.random(size=T)
    scale = np.where(picks < scenario.mixture_kappa, 1.0, 3.0)
    kappa = scenario.mixture_kappa
    g *= scale[:, None]
    g /= math.sqrt(kappa + 9.0 * (1.0 - kappa))
    return g


def gen_alpha(spec: AlphaSpec, N: int, T: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sparse intercept panel (T x N) and the sorted support indices.

    The intercept does not vary in t, so the panel is a read-only view of
    one N-vector, zero off the support, repeated over T rows (stride 0
    along t; `.copy()` gives a dense, writable array).

    Draw order: the support (one choice without replacement), then one
    uniform level per supported asset.
    """
    if spec.sparsity > N:
        raise ContractError(
            f"sparsity {spec.sparsity} exceeds the number of assets {N}"
        )
    row = np.zeros(N)
    if spec.sparsity == 0:
        return np.broadcast_to(row, (T, N)), np.empty(0, dtype=int)
    support = np.sort(rng.choice(N, size=spec.sparsity, replace=False))
    bound = spec.upper_bound(N, T)
    levels = rng.uniform(0.0, bound, size=spec.sparsity)
    if spec.mode == "over_T":
        levels = levels / T
    row[support] = levels
    return np.broadcast_to(row, (T, N)), support


def assemble_panel(
    example: int,
    N: int,
    T: int,
    rng,
    scenario: ErrorScenario = ErrorScenario("normal"),
) -> tuple[np.ndarray, np.ndarray]:
    """Compose Y = sum_j beta_j f_j + e for one example design.

    Returns the T x N panel and the T x p factor matrix. Randomness is
    consumed in the fixed order: factor paths (listed order), latent
    loading state (example 2), error draws.
    """
    if example not in EXAMPLE_FACTORS:
        raise ContractError(f"example must be 1, 2 or 3, got {example}")
    specs = EXAMPLE_FACTORS[example]
    F = np.column_stack([ar_garch_path(s, T, rng) for s in specs])
    loadings, _ = gen_loadings(example, T, rng)
    errors = gen_errors(scenario, N, T, rng)
    # Loadings are shared by all assets, so one (T, 1) column broadcasts;
    # it is added over the errors, which become the panel.
    errors += np.einsum("pt,tp->t", loadings, F)[:, None]
    return errors, F


@dataclass(frozen=True)
class SimulatedPanel:
    """One simulated dataset: returns, factors, injected alpha, support.

    alpha is `gen_alpha`'s read-only T x N view of one N-vector, so the
    panel is the only T x N array a kept draw holds.
    """

    panel: np.ndarray
    factors: np.ndarray
    alpha: np.ndarray
    support: np.ndarray


@one_blas_thread()
def simulate_panel(
    example: int,
    scenario: ErrorScenario,
    alpha_spec: AlphaSpec,
    N: int,
    T: int,
    rng,
) -> SimulatedPanel:
    """Full draw for one replication.

    Consumption order extends assemble_panel: factors, latent state,
    errors, then the intercept support and levels. The levels are added
    in place to the support's columns only (nothing at sparsity 0), so the
    draw allocates no T x N array beside its panel. OpenBLAS runs at one
    thread for the draw, so a panel drawn here is bit-identical to the
    same replication's draw inside the harness.
    """
    panel, F = assemble_panel(example, N, T, rng, scenario)
    alpha, support = gen_alpha(alpha_spec, N, T, rng)
    panel[:, support] += alpha[0, support]
    return SimulatedPanel(panel, F, alpha, support)
