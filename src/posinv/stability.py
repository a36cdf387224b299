"""Fixed-point stability toolkit for the schemes on linear models.

The positivity-preserving schemes generate nonlinear maps even on linear
problems, but at a positive steady state their Jacobians have closed forms.
Both columns are generated from the damping factors d_k(dt*trace(S-)) in
``integrators.SCHEMES``: 1 + z*d_1 + z^2/2*d_2, and that polynomial at dt*A.

==========  =====================================  =========================
scheme      Jacobian at the steady state           scalar stability value
==========  =====================================  =========================
euler       I + dt*A                               1 + z
gbbks1      I + dt*A                               1 + z
heun        I + dt*A + dt^2/2 * A^2                1 + z + z^2/2
gbbks2      I + dt*A + dt^2/2 * A^2                1 + z + z^2/2
geco1       I + Phi(dt)*A                          1 + z*phi(dt*trace(S-))
geco2       I + dt*A + dt^2/2*phi(dt*tr(S-))*A^2   1 + z + z^2/2*phi(dt*tr)
==========  =====================================  =========================

with z = dt*lambda.  Steady states are non-hyperbolic (eigenvalue 1 on the
kernel directions), so classification counts the kernel eigenvalues and
judges only the remaining spectrum: strictly inside the unit circle means
stable, strictly outside means unstable, anything on the declared tolerance
band stays inconclusive rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import ModelError, NumericsError
from .integrators import SCHEMES, SchemeSpec, make_scheme, step_map
from .pds import LinearPds

#: Eigenvalues within this window of 1 are attributed to the kernel.
KERNEL_WINDOW = 1e-8
#: Verdict tolerance around the unit circle.
VERDICT_TOL = 1e-9
#: Search cap on dt*max|lambda|; reaching it with all values < 1 means unconditional.
Z_SEARCH_CAP = 2.0**40

#: Previously reported bracket for the second-order damped scheme's region
#: endpoint; our computed root lies outside it (the reported digits are not
#: reproducible from the stability function and look transposed).
REPORTED_ENDPOINT_BRACKET = (-3.9924, -3.9923)


def _damping(scheme, x: float) -> list[float]:
    """Damping factors (d_1[, d_2]) of a scheme or scheme id at x = dt*trace(S-)."""
    sid = getattr(scheme, "id", scheme)
    if sid not in SCHEMES:
        raise ValueError(f"unknown scheme {sid!r}")
    return [factor(x) for factor in SCHEMES[sid].damping]


def stability_value(scheme, z: complex, dt_trace: float = 0.0) -> complex:
    """Scalar stability value 1 + z*d_1 + z^2/2*d_2 of a scheme at z = dt*lambda.

    ``dt_trace`` = dt * trace(S-) feeds the damping kernel of the geco
    schemes and is ignored by the others.
    """
    z = complex(z)
    d = _damping(scheme, dt_trace)
    value = 1.0 + z * d[0]
    return value + 0.5 * z * z * d[1] if len(d) > 1 else value


@dataclass(frozen=True)
class CriticalStep:
    """Smallest step size at which some non-kernel stability value reaches 1."""

    dt_star: float | None
    unconditional: bool
    binding_eigenvalue: complex | None
    bracket_width: float | None


def critical_step(model: LinearPds, scheme) -> CriticalStep:
    """Critical step size for ``scheme`` on a linear model.

    Evaluates the supremum of |stability value| over the whole nonzero
    spectrum (complex pairs included) and locates its first crossing of 1 by
    bracket-doubling from 1e-6 followed by bisection to relative width
    1e-10.  The doubling stops where dt*max|lambda| reaches ``Z_SEARCH_CAP``,
    a cap on z rather than on dt, so ``2^k*A`` gets ``2^-k`` times the dt*
    of A; if it stops there with every value below 1 the scheme is
    unconditionally stable on this model.
    """
    lams = model.nonzero_eigenvalues
    if lams.size == 0:
        return CriticalStep(None, True, None, None)
    trace = model.trace_s_minus
    scale = float(np.max(np.abs(lams)))

    def radius(dt: float) -> float:
        return max(abs(stability_value(scheme, dt * lam, dt * trace)) for lam in lams)

    lo, hi = 0.0, 1e-6
    while radius(hi) < 1.0:
        if hi * scale >= Z_SEARCH_CAP:
            return CriticalStep(None, True, None, None)
        lo, hi = hi, 2.0 * hi

    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if radius(mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    dt_star = 0.5 * (lo + hi)
    binding = max(lams, key=lambda lam: abs(stability_value(scheme, dt_star * lam, dt_star * trace)))
    return CriticalStep(dt_star, False, complex(binding), hi - lo)


@dataclass(frozen=True)
class Certificate:
    """Unconditional-stability certificate for the first-order damped scheme.

    ``m_value`` is the minimum of 2|Re(lambda)| / |lambda|^2 over the nonzero
    spectrum; the certificate holds when m_value * trace(S-) >= 1, which
    places every non-kernel Jacobian eigenvalue inside the unit circle for
    every step size.
    """

    m_value: float
    trace_s_minus: float
    product: float
    holds: bool


def unconditional_certificate(model: LinearPds) -> Certificate:
    lams = model.nonzero_eigenvalues
    if lams.size == 0:
        raise NumericsError("certificate undefined: matrix has no nonzero eigenvalues")
    m_value = float(np.min(2.0 * np.abs(lams.real) / np.abs(lams) ** 2))
    product = m_value * model.trace_s_minus
    return Certificate(
        m_value=m_value,
        trace_s_minus=model.trace_s_minus,
        product=product,
        holds=bool(product >= 1.0 - 1e-12),
    )


def numerical_jacobian(step_fn: Callable, y_star) -> np.ndarray:
    """Central-difference Jacobian of a step map.

    Per-coordinate probe step h_i = 1e-6 * |y*_i| (a zero step raises
    ValueError): the step maps' curvature grows like dt / y*_i.  They are C^1 with Lipschitz
    first derivatives but not C^2, so expect O(h_i) accuracy, not O(h_i^2).
    """
    y_star = np.asarray(y_star, dtype=float)
    n = y_star.size
    jac = np.empty((n, n))
    for i in range(n):
        hi = 1e-6 * abs(y_star[i])
        if hi == 0.0:
            raise ValueError(f"probe step for entry {i} is zero; y* must have nonzero entries")
        up = y_star.copy()
        dn = y_star.copy()
        up[i] += hi
        dn[i] -= hi
        jac[:, i] = (np.asarray(step_fn(up)) - np.asarray(step_fn(dn))) / (2.0 * hi)
    if not np.all(np.isfinite(jac)):
        raise NumericsError("step map failed or overflowed at a probe point")
    return jac


def closed_form_jacobian(model: LinearPds, scheme, dt: float) -> np.ndarray:
    """Steady-state Jacobian I + dt*d_1*A + dt^2/2*d_2*A^2 of the scheme's step map.

    At a dt so large that a product overflows, entries are inf or nan without
    a warning; :func:`classify_fixed_point` rejects them.
    """
    a = model.a
    d = _damping(scheme, dt * model.trace_s_minus)
    with np.errstate(over="ignore", invalid="ignore"):
        jac = np.eye(a.shape[0]) + dt * d[0] * a
        return jac + (0.5 * dt) * (dt * d[1]) * (a @ a) if len(d) > 1 else jac


@dataclass(frozen=True)
class StabilityReport:
    """Spectral classification of a steady state as a fixed point of a scheme."""

    kernel_count: int
    non_kernel_radius: float
    verdict: str  # stable | unstable | inconclusive


def classify_fixed_point(model: LinearPds, scheme, y_star, dt: float) -> StabilityReport:
    """Classify a positive steady state of the model as a fixed point.

    The Jacobian comes from the closed form and is cross-checked against a
    finite-difference probe of the actual step map; a disagreement, or a
    closed-form Jacobian that is not finite, raises :class:`NumericsError`.
    Eigenvalues within ``KERNEL_WINDOW`` of 1 are counted against the kernel
    dimension; a count mismatch or a non-kernel eigenvalue hugging the unit
    circle yields the verdict ``inconclusive`` rather than a guess.
    """
    y_star = np.asarray(y_star, dtype=float)
    if np.any(y_star <= 0.0):
        raise ValueError("steady state must be strictly positive")
    residual = np.linalg.norm(model.a @ y_star, np.inf)
    scale = np.linalg.norm(model.a, np.inf) * np.linalg.norm(y_star, np.inf)
    if residual > 1e-8 * max(scale, 1.0):
        raise ValueError("y_star is not a steady state of the model")

    jac = closed_form_jacobian(model, scheme, dt)
    spec_obj = scheme if isinstance(scheme, SchemeSpec) else make_scheme(scheme)
    fd = numerical_jacobian(step_map(model, spec_obj, dt), y_star)
    gap = float(np.max(np.abs(fd - jac)))
    if gap > 1e-3 * max(1.0, float(np.max(np.abs(jac)))):
        raise NumericsError(
            f"closed-form and finite-difference Jacobians disagree by {gap:.3e}"
        )
    # a non-finite gap compares False above, so an overflowed Jacobian gets here
    if not np.all(np.isfinite(jac)):
        raise NumericsError("closed-form Jacobian is not finite")

    vals = linalg.eigenvalues(jac)
    near_one = np.abs(vals - 1.0) <= KERNEL_WINDOW
    kernel_count = int(np.sum(near_one))
    rest = vals[~near_one]
    radius = float(np.max(np.abs(rest))) if rest.size else 0.0

    expected_k = len(model.kernel_basis)
    if kernel_count != expected_k:
        verdict = "inconclusive"
    elif radius < 1.0 - VERDICT_TOL:
        verdict = "stable"
    elif radius > 1.0 + VERDICT_TOL:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return StabilityReport(kernel_count=kernel_count, non_kernel_radius=radius, verdict=verdict)


@dataclass(frozen=True)
class RegionEndpoint:
    """Left endpoint of the second-order damped scheme's stability interval.

    The stability value under the substitution dt*trace(S-) = -z reads
    R(z) = 1 + z + z^2/2 * phi(-z); the endpoint solves |R(z)| = 1, z < 0,
    equivalently z*(1 + e^z) = -4.  ``agrees_with_reported`` compares against
    :data:`REPORTED_ENDPOINT_BRACKET`.
    """

    z_star: float
    stability_residual: float
    reduced_equation_residual: float
    agrees_with_reported: bool


def geco2_region_endpoint() -> RegionEndpoint:
    """Locate the region endpoint by bisection on R(z) + 1 = 0."""

    def r_value(z: float) -> float:
        return float((stability_value("geco2", z, -z)).real)

    lo, hi = -8.0, -1.0  # R(-8) < -1 < R(-1)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if r_value(mid) + 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    z_star = 0.5 * (lo + hi)
    reduced = z_star * (1.0 + math.exp(z_star)) + 4.0
    lo_b, hi_b = REPORTED_ENDPOINT_BRACKET
    return RegionEndpoint(
        z_star=z_star,
        stability_residual=abs(abs(r_value(z_star)) - 1.0),
        reduced_equation_residual=reduced,
        agrees_with_reported=bool(lo_b <= z_star <= hi_b),
    )


def random_conservative_system(seed: int, n: int) -> LinearPds:
    """Seeded random member of the conservative Metzler class.

    Off-diagonal entries are sampled nonnegative (with some sparsity) and
    each diagonal entry is the negated column sum, so all column sums vanish
    and the all-ones row is a linear invariant.  Draws are rejected until
    :meth:`LinearPds.from_matrix` accepts one; the output is bit-reproducible
    per seed.
    """
    if not 2 <= n <= linalg.MAX_DIM:
        # checked before the n x n draws are allocated
        raise ValueError(f"need dimension 2 <= n <= {linalg.MAX_DIM}, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a[rng.random((n, n)) < 0.25] = 0.0
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=0))
        try:
            return LinearPds.from_matrix(a)
        except ModelError:
            continue
    raise NumericsError("no admissible random system in 100 draws")
