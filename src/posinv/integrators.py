"""Step maps and the trajectory driver.

Six one-step schemes share a common interface: classical explicit Euler and
Heun as baselines, the two exponential-modulation schemes (geco1, geco2)
whose step length is damped through the kernel ``phi``, and the two
product-term schemes (gbbks1, gbbks2) that restore positivity by solving a
scalar fixed-point equation for the factor multiplying the update.

All four nonstandard schemes conserve every linear invariant of the model
and keep iterates positive for any step size; the baselines conserve
invariants only.  Each run binds its own step map, a deterministic function
of the state, so independent integrations can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import IntegrationError, ModelError, NumericsError, PosinvError, SolverError


@dataclass(frozen=True)
class Scheme:
    """One entry of :data:`SCHEMES`.

    ``bind(model, dt, spec)`` reads once what a run keeps fixed and returns
    its unchecked step map (y, y.tolist()) -> (next state, its list, tau,
    aux).  ``damping`` holds the factors d_k(x), x = dt*trace(S-), of the
    stability polynomial 1 + z*d_1 + z^2/2*d_2 (z = dt*lambda), which at
    dt*A is the steady-state Jacobian on a linear model.
    """

    bind: Callable[..., Callable[[np.ndarray, list], tuple[np.ndarray, list, float, dict]]]
    damping: tuple[Callable[[float], float], ...]


def _one(x: float) -> float:
    return 1.0


def _state(y: np.ndarray) -> np.ndarray:
    """The default ``pi``: the state itself, so its stage reuses ``y.tolist()``."""
    return y


#: Below this argument the direct formula for ``phi`` loses digits; switch to
#: the four-term series (next term is x^4/120 ~ 1e-22 relative at the cutoff).
_PHI_SERIES_CUTOFF = 1e-5


def phi(x: float) -> float:
    """Step-damping kernel (1 - exp(-x)) / x, continuously extended.

    Defined for x >= 0 with phi(0) = 1 and phi(inf) = 0; values lie in
    (0, 1].  Uses expm1 so no digits cancel for small x, and a short Taylor
    series below the cutoff where even expm1/x would round.
    """
    x = float(x)
    if _PHI_SERIES_CUTOFF <= x < math.inf:  # the common case first
        return -math.expm1(-x) / x
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"phi argument must be nonnegative, got {x}")
    if math.isinf(x):
        return 0.0
    if x == 0.0:
        return 1.0
    return 1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0


def solve_tau(c, d, sigma, r: float) -> float:
    """Unique root of G(tau) = (prod_m (c_m + d_m*tau) / sigma_m)^r - tau.

    Requires c_m > 0, d_m < 0, sigma_m > 0 and 0 < r < inf; the root lies in
    (0, tau_max) with tau_max = min_m c_m / (-d_m), where G(0) > 0 and
    G(tau_max) < 0.

    Safeguarded Newton from tau = 0, whose first iterate is the linearised
    root p0 / (1 + r*p0*sum(-d/c)) with p0 = G(0), inside the bracket
    [lo, hi] = [0, tau_max].  A bisection step replaces a Newton step that
    leaves the bracket, is not below half the previous move or comes from a
    slope that overflowed, and follows a point where some factor
    c_m + d_m*tau is not positive in floating point.  For r >= 1, G is
    convex and the Newton iterates climb to the root from the left.
    Iteration stops at a float root (G(tau) is 0.0) or when the Newton step
    is within one ulp of tau; if the residual at the new iterate exceeds
    1e-14 its ulp neighbours are tried.  At most 200 iterations.

    G is evaluated at full precision on subnormal data: a triple with an
    entry below the smallest normal float is multiplied by the power of two
    2^k, k > 0, that puts its largest entry in [2^1020, 2^1021).  That is
    exact and leaves every ratio of G unchanged, so only the rounding of
    c_m + d_m*tau improves; triples of normal floats are used as they are.

    The returned tau makes every float c_m + d_m*tau (the update the schemes
    form) strictly positive: when the converged point does not, or the
    bracket closes to neighbouring floats, the last point with G > 0 is
    returned.  Where the unscaled update of a rescaled triple is not
    positive at the root (as for c = sigma = 2^-1074), tau is lowered to the
    largest float that keeps it positive, (c - 2^-1075) / (-d) formed
    exactly after scaling (c, d) by a power of two, then settled to the ulp.
    Where G at that boundary exceeds four times its rounding-error bound,
    the root lies above it and the boundary is returned without Newton.  A
    tau that is still not positive becomes 2^-1074 where that keeps every
    factor positive.  An empty index set returns 1, the empty product.

    Raises ValueError on data outside the requirements or not finite, and
    :class:`SolverError` with the bracket (0, max(tau_max, 2^-1074)), naming
    a binding factor, when no positive float tau keeps every factor positive.
    """
    c, d, sigma = (np.atleast_1d(np.asarray(v, dtype=float)).tolist() for v in (c, d, sigma))
    if len(c) == 0:
        return 1.0
    if not (len(c) == len(d) == len(sigma)):
        raise ValueError("c, d, sigma must have matching shapes")
    if min(c) <= 0.0 or max(d) >= 0.0 or min(sigma) <= 0.0 or not 0.0 < r < math.inf:
        raise ValueError("need c > 0, d < 0, sigma > 0, 0 < r < inf")
    if not all(map(math.isfinite, c + d + sigma)):
        raise ValueError("c, d, sigma must be finite")
    return _newton_tau(list(zip(c, d, sigma)), float(r))


#: Smallest positive normal float; a triple with an entry below it is rescaled.
_MIN_NORMAL = 2.0**-1022
#: The last subnormal triple solved, its lift and its boundary: a pure function of the triple.
_lift = (None, None, None)


def _newton_tau(factors: list[tuple[float, float, float]], r: float) -> float:
    """:func:`solve_tau` on validated, nonempty (c_m, d_m, sigma_m) float triples.

    One pass scales each triple with a subnormal entry by 2^k, k > 0, and
    takes b, the least positivity boundary of a subnormal c (only such a
    factor binds); all-normal triples reach Newton as they are.  If G(b) is
    positive beyond rounding (:func:`_root_above`), b is the answer, else
    Newton's root clamped to b.  The one exit of the solve: a positive tau
    is returned, one that is not becomes 2^-1074 if that keeps every float
    factor positive, and otherwise :class:`SolverError` names a factor.

    ``_lift`` is read once and replaced whole, so a solve never mixes two
    entries, and consecutive stiff solves, which mostly share a triple, hit it.
    """
    global _lift
    lift, scaled, boundary = _lift, factors, math.inf
    for i, triple in enumerate(factors):
        ci, di, si = triple
        if ci < _MIN_NORMAL or si < _MIN_NORMAL or di > -_MIN_NORMAL:
            if lift[0] != triple:  # exact: the entries are finite and nonzero
                k = 1021 - math.frexp(max(ci, -di, si))[1]
                lifted = (math.ldexp(ci, k), math.ldexp(di, k), math.ldexp(si, k)) if k > 0 else triple
                lift = _lift = (triple, lifted, _last_positive_tau(ci, di) if ci < _MIN_NORMAL else math.inf)
            if lift[1] is not triple:
                if scaled is factors:
                    scaled = factors.copy()
                scaled[i] = lift[1]
            if lift[2] < boundary:
                boundary = lift[2]
    # a boundary of 0.0 is no positive tau to return
    if 0.0 < boundary < math.inf and _root_above(scaled, r, boundary):
        tau = boundary
    else:
        tau = _newton_root(scaled, r)
        if tau > boundary:
            tau = boundary
    if tau > 0.0:
        return tau
    for ci, di, _ in factors:
        if not ci + di * math.ulp(0.0) > 0.0:
            raise SolverError(
                f"no positive float tau keeps every product-term factor c + d*tau positive: "
                f"c + d*2^-1074 <= 0 at c = {ci!r}, d = {di!r}",
                # tau_max may underflow; the bracket still holds the positive root
                bracket=(0.0, max(min(cj / -dj for cj, dj, _ in factors), math.ulp(0.0))),
            )
    return math.ulp(0.0)


def _last_positive_tau(c: float, d: float) -> float:
    """Largest float tau with c + d*tau > 0 in floating point (c > 0, d < 0).

    For c <= 2^-1022, the case the solver meets, the floats below c are
    2^-1074 apart: the float d*tau stays above -c exactly when -d*tau is
    below c - 2^-1075 (or equal to it, if that tie rounds away from c).
    Scaled by the 2^k that puts max(c, -d) in [2^1020, 2^1021), that
    threshold is exact when k > 0 and the quotient is rounded once, so it
    is never below the answer and at most one step down settles the last
    ulp.  k <= 0 means -d >= 2^1020, where the answer is 0.0 and the loop
    steps down to it.
    """
    k = 1021 - math.frexp(max(c, -d))[1]
    tau = (math.ldexp(c, k) - math.ldexp(0.5, k - 1074)) / math.ldexp(-d, k)
    while not c + d * tau > 0.0:
        tau = math.nextafter(tau, 0.0)
    return tau


def _evaluate(factors: list[tuple[float, float, float]], r: float, tau: float):
    """(G(tau), G'(tau)) in the arithmetic of ``factors``, or None at a nonpositive factor.

    A ratio c_m/sigma_m or running product below 2^-1022 has lost digits
    (a ratio can be 0.0 although the full product is a float), and one that
    ends at +inf may have overflowed on the way: the product is then formed
    again with its binary exponent kept apart and rounded into a float once,
    +inf beyond the float range.  A power ``prod**r`` beyond the float range
    is +inf: G is then positive, and the root lies above tau.
    """
    prod = 1.0
    slope_sum = 0.0
    dipped = False
    for ci, di, si in factors:
        num = ci + di * tau
        if num <= 0.0:
            return None
        ratio = num / si
        prod *= ratio
        slope_sum += di / num
        if ratio < _MIN_NORMAL or prod < _MIN_NORMAL:
            dipped = True
    if dipped or not prod < math.inf:
        prod, exp = 1.0, 0
        for ci, di, si in factors:
            (m_num, e_num), (m_si, e_si) = math.frexp(ci + di * tau), math.frexp(si)
            prod, e = math.frexp(prod * (m_num / m_si))
            exp += e + e_num - e_si
        try:
            prod = math.ldexp(prod, exp)
        except OverflowError:
            prod = math.inf
    if r == 1.0:  # prod**1.0 is prod and p*1.0 is p
        return prod - tau, prod * slope_sum - 1.0
    try:
        p = prod**r
    except OverflowError:
        p = math.inf
    return p - tau, p * r * slope_sum - 1.0


def _root_above(factors: list[tuple[float, float, float]], r: float, tau: float) -> bool:
    """Whether G(tau) is positive by more than four times its rounding-error bound.

    The float p = prod_m ((c_m + d_m*tau)/sigma_m)^r carries a relative
    error below u*(r*sum_m (3 + kappa_m) + 2), u = 2^-53, where
    kappa_m = -d_m*tau/(c_m + d_m*tau) counts the cancellation in the
    factor and r*p*sum_m kappa_m is -tau*(G'(tau) + 1); forming p - tau adds
    at most u*p.  G is decreasing, so the root then lies above tau.
    """
    point = _evaluate(factors, r, tau)
    if point is None:
        return False
    g, slope = point
    p = g + tau
    return g > 2.0**-51 * ((3.0 * len(factors) * r + 3.0) * p - tau * (slope + 1.0))


def _newton_root(factors: list[tuple[float, float, float]], r: float) -> float:
    """The safeguarded Newton loop of :func:`solve_tau`, in the arithmetic of ``factors``."""
    lo, hi = 0.0, min(ci / -di for ci, di, _ in factors)
    tau, move = 0.0, math.inf
    for _ in range(200):
        point = _evaluate(factors, r, tau)
        if point is None:
            hi = tau
        else:
            g, slope = point
            if g == 0.0:
                # tau is a float root, where most solves on order-one data end; at
                # tau = 0, G(0) underflowed and the floor rule of _newton_tau decides
                return tau
            if g > 0.0:
                lo = tau
            else:
                hi = tau
            step = -g / slope
            # a slope that overflowed makes the step 0.0 far from the root
            if abs(step) <= math.ulp(tau) and math.isfinite(slope):
                break
            if lo < tau + step < hi and abs(step) < 0.5 * move:
                tau, move = tau + step, abs(step)
                continue
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # the float root lies between neighbouring floats
            return lo
        tau, move = mid, abs(mid - tau)
    else:
        raise SolverError(
            "product-term solve did not reach tolerance in 200 iterations",
            bracket=(lo, hi),
        )
    tau += step
    point = _evaluate(factors, r, tau)
    if point is None:
        return lo
    g = point[0]
    if abs(g) > 1e-14:
        for near in (math.nextafter(tau, 0.0), math.nextafter(tau, math.inf)):
            point = _evaluate(factors, r, near)
            if point is not None and abs(point[0]) < abs(g):
                tau, g = near, point[0]
    return tau


@dataclass(frozen=True)
class GbbksStrategy:
    """Free parameters of the product-term schemes, as functions of the state.

    ``sigma`` receives the current state and, for the two-stage scheme, the
    inner stage; ``pi`` and ``q`` parametrize the inner stage only.  ``r``,
    ``pi`` and ``q`` default to the classic BBKS choices r = q = 1 and pi = y,
    the state itself.  Outputs must be strictly positive wherever the scheme
    consults them, and sigma and pi must reproduce the state on steady states
    (sigma(v, v) = pi(v) = v whenever A v = 0); the shipped presets satisfy
    both.  Each callable must be a deterministic function of its arguments:
    :func:`integrate` stops calling the step map once it returns its input
    bit for bit.
    """

    sigma: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    r: Callable[[np.ndarray], float] = _one
    pi: Callable[[np.ndarray], np.ndarray] = _state
    q: Callable[[np.ndarray], float] = _one

    @classmethod
    def bbks1(cls) -> "GbbksStrategy":
        """Classic first-order preset: sigma_m = y_m, r = 1."""
        return cls(sigma=lambda y, y2=None: y)

    @classmethod
    def bbks2(cls, alpha: float) -> "GbbksStrategy":
        """Classic second-order preset: pi = y, sigma_m = y_m^(1-1/a) * y2_m^(1/a), q = r = 1."""
        alpha = float(alpha)
        _check_alpha(alpha)
        e1, e2 = 1.0 - 1.0 / alpha, 1.0 / alpha
        if e1 == 0.0:
            # alpha = 1: y^0 is 1.0 for every y (0, inf and nan too) and y2^1.0 is y2
            sigma = lambda y, y2: y2
        else:
            sigma = lambda y, y2: np.power(y, e1) * np.power(y2, e2)
        return cls(sigma=sigma)


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme identifier plus the parameters some schemes need."""

    id: str
    alpha: float | None = None
    strategy: GbbksStrategy | None = None

    def __post_init__(self):
        if self.id not in SCHEME_IDS:
            raise ValueError(f"unknown scheme {self.id!r}; known: {SCHEME_IDS}")
        if self.id == "gbbks2":
            _check_alpha(self.alpha)
        elif self.alpha is not None:
            raise ValueError(f"scheme {self.id!r} does not take alpha")
        if self.id in ("gbbks1", "gbbks2"):
            if self.strategy is None:
                raise ValueError(f"{self.id} requires a parameter strategy")
        elif self.strategy is not None:
            raise ValueError(f"scheme {self.id!r} does not take strategy")


def _check_alpha(alpha: float | None) -> None:
    if alpha is None or not 0.5 <= alpha < math.inf:
        raise ValueError("gbbks2 requires a finite alpha >= 1/2")


def make_scheme(name: str, alpha: float | None = None) -> SchemeSpec:
    """Scheme with the standard preset strategy; alpha applies to gbbks2 only."""
    if name == "gbbks1":
        return SchemeSpec("gbbks1", alpha=alpha, strategy=GbbksStrategy.bbks1())
    if name == "gbbks2":
        a = 1.0 if alpha is None else float(alpha)
        return SchemeSpec("gbbks2", alpha=a, strategy=GbbksStrategy.bbks2(a))
    return SchemeSpec(name, alpha=alpha)


def _check_result(floats: list) -> None:
    if not all(map(math.isfinite, floats)):
        raise NumericsError("scheme produced a non-finite state")


def _check_shape(model, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (model.dimension,):
        raise ValueError(f"state shape {y.shape} does not match model dimension {model.dimension}")
    return y


def _check_step(y, dt: float) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if not np.isfinite(y).all():
        raise ValueError("state has non-finite entries")
    return y


def _bind_euler(model, dt: float, spec):
    """Explicit Euler step y + dt*f(y)."""
    rhs = model.rhs

    def advance(y, ys):
        nxt = y + dt * rhs(y)
        return nxt, nxt.tolist(), 1.0, {}
    return advance


def _bind_heun(model, dt: float, spec):
    """Heun's two-stage step."""
    rhs = model.rhs

    def advance(y, ys):
        f1 = rhs(y)
        nxt = y + dt * (0.5 * f1 + 0.5 * rhs(y + dt * f1))
        return nxt, nxt.tolist(), 1.0, {}
    return advance


def _bind_geco1(model, dt: float, spec):
    """First-order damped step y + dt*phi(dt*sum d_j)*f(y).

    For linear models the damping argument is trace(S-) exactly, so the step
    is (I + Phi(dt) A) y and remains well defined on the boundary of the
    positive orthant.
    """
    rhs_and_rate_sum = model.rhs_and_rate_sum

    def advance(y, ys):
        f, rate_sum = rhs_and_rate_sum(y)
        arg = dt * rate_sum
        nxt = y + (dt * phi(arg)) * f
        return nxt, nxt.tolist(), 1.0, {"arg": arg}
    return advance


def _bind_geco2(model, dt: float, spec):
    """Second-order damped step built on a geco1 inner stage.

    The outer damping argument is dt * sum_i max(w_i, 0)/y_i; vanishing
    numerators contribute nothing regardless of y_i, and a positive numerator
    over a zero component drives the argument to +inf, where the kernel's
    continuous limit 0 freezes the state for this step (flagged in
    ``aux['degenerate']``).
    """
    rhs, rhs_and_rate_sum, half = model.rhs, model.rhs_and_rate_sum, 0.5 * dt

    def advance(y, ys):
        f1, rate_sum = rhs_and_rate_sum(y)
        inner_arg, f1 = dt * rate_sum, f1.tolist()
        inner_phi = phi(inner_arg)
        h, twice = dt * inner_phi, 2.0 * inner_phi
        y2 = [yi + h * fi for yi, fi in zip(ys, f1)]
        _check_result(y2)
        f2 = rhs(np.array(y2)).tolist()
        w = [twice * a - a - b for a, b in zip(f1, f2)]
        degenerate = 0.0 in ys and any(wi > 0.0 and yi == 0.0 for wi, yi in zip(w, ys))
        arg = math.inf if degenerate else dt * _add_reduce([wi / yi for wi, yi in zip(w, ys) if wi > 0.0])
        g = half * phi(arg)
        nxt = [yi + g * (a + b) for yi, a, b in zip(ys, f1, f2)]
        return np.array(nxt), nxt, 1.0, {"arg": arg, "inner_arg": inner_arg, "degenerate": degenerate}
    return advance


def _add_reduce(values: list) -> float:
    """``float(np.sum(values))``: below 8 terms numpy's add-reduce adds left to right.

    That short sum is an explicit loop: from Python 3.12 on, ``sum`` of floats
    is compensated and no longer gives numpy's bits.
    """
    if len(values) >= 8:
        return float(np.sum(np.array(values)))
    total = 0.0
    for value in values:
        total += value
    return total


def _floats(v, ys: list, label: str) -> list:
    """A strategy's sigma or pi as a float list, after checking it has the shape of the state."""
    v = np.asarray(v, dtype=float)
    if v.shape != (len(ys),):
        raise ModelError(f"{label}: strategy returned sigma of shape {v.shape}")
    return v.tolist()


def _stage(ys: list, slope: list, sigmas: list, r: float, label: str):
    """A product-term stage (y + tau*slope, its list, tau), tau solved on {m : slope_m < 0}.

    ``ys`` and ``sigmas`` are float lists; an empty active set gives tau = 1, the empty product.
    """
    factors = [factor for factor in zip(ys, slope, sigmas) if factor[1] < 0.0]
    for ci, _, si in factors:
        if not (0.0 < si < math.inf and ci > 0.0):
            # the first check that fails names the fault, sigma before state
            if not all(0.0 < si < math.inf for _, _, si in factors):
                raise ModelError(f"{label}: strategy returned nonpositive sigma on the active set")
            raise ModelError(f"{label}: state component in the active set is not positive")
    if factors and not 0.0 < r < math.inf:
        raise ModelError(f"{label}: strategy exponent must be positive and finite")
    if -math.inf in slope:
        # dt*f overflowed: every positive tau leaves that component at -inf
        raise NumericsError("scheme produced a non-finite state")
    tau = _newton_tau(factors, r) if factors else 1.0
    nxt = [yi + si * tau for yi, si in zip(ys, slope)]
    return np.array(nxt), nxt, tau


def _bind_gbbks1(model, dt: float, spec):
    """First-order product-term step; reduces to Euler when f(y) >= 0."""
    rhs, sigma_of, r_of = model.rhs, spec.strategy.sigma, spec.strategy.r
    r_of = None if r_of is _one else r_of  # the default r = 1 is a constant, not a call

    def advance(y, ys):
        slope = [dt * fi for fi in rhs(y).tolist()]
        sigma, r = sigma_of(y, None), 1.0 if r_of is None else float(r_of(y))
        sigmas = ys if sigma is y else _floats(sigma, ys, "gbbks1")
        nxt, ys_next, tau = _stage(ys, slope, sigmas, r, "gbbks1")
        return nxt, ys_next, tau, {}
    return advance


def _bind_gbbks2(model, dt: float, spec):
    """Two-stage product-term step; reduces to Heun when both active sets are empty."""
    alpha, strategy, rhs = spec.alpha, spec.strategy, model.rhs
    h, w1, w2, sigma_of = alpha * dt, 1.0 - 1.0 / (2.0 * alpha), 1.0 / (2.0 * alpha), strategy.sigma
    # the defaults r = q = 1 and pi = y are constants, not calls
    r_of, q_of, pi_of = (None if fn is default else fn for fn, default in
                         ((strategy.r, _one), (strategy.q, _one), (strategy.pi, _state)))

    def advance(y, ys):
        f1 = rhs(y).tolist()
        pi, q = y if pi_of is None else pi_of(y), 1.0 if q_of is None else float(q_of(y))
        pis = ys if pi is y else _floats(pi, ys, "gbbks2 inner")
        y2, ys2, tau_inner = _stage(ys, [h * fi for fi in f1], pis, q, "gbbks2 inner")
        slope = [dt * (w1 * a + w2 * b) for a, b in zip(f1, rhs(y2).tolist())]
        sigma, r = sigma_of(y, y2), 1.0 if r_of is None else float(r_of(y))
        sigmas = ys2 if sigma is y2 else ys if sigma is y else _floats(sigma, ys, "gbbks2")
        nxt, ys_next, tau = _stage(ys, slope, sigmas, r, "gbbks2")
        return nxt, ys_next, tau, {"tau_inner": tau_inner}
    return advance


SCHEMES = {
    "euler": Scheme(_bind_euler, (_one,)),
    "heun": Scheme(_bind_heun, (_one, _one)),
    "geco1": Scheme(_bind_geco1, (lambda x: phi(x),)),
    "geco2": Scheme(_bind_geco2, (_one, lambda x: phi(x))),
    "gbbks1": Scheme(_bind_gbbks1, (_one,)),
    "gbbks2": Scheme(_bind_gbbks2, (_one, _one)),
}
SCHEME_IDS = tuple(SCHEMES)


def _once(bind, model, y: np.ndarray, dt: float, spec) -> tuple[np.ndarray, float, dict]:
    """One unchecked step (next state, tau, aux) of a run bound for it; :func:`step` is the checked form."""
    y_next, _, tau, aux = bind(model, dt, spec)(y, y.tolist())
    return y_next, tau, aux


#: The unchecked single steps (model, y, dt, spec) -> (next state, tau, aux).
euler_step, heun_step, geco1_step, geco2_step, gbbks1_step, gbbks2_step = (
    partial(_once, scheme.bind) for scheme in SCHEMES.values())


def step(model, scheme: SchemeSpec, y, dt: float) -> tuple[np.ndarray, float, dict]:
    """One checked step: (next state, tau, aux).

    Validates ``y`` and ``dt``, applies the scheme's bound step map under
    the floating-point error state of :func:`integrate` and checks only that
    the state it returns is finite.  ``tau`` is the product-term factor
    of the gbbks schemes (1 whenever the active set was empty or the scheme
    has no product term), positive by construction; ``aux`` holds the damping
    arguments and the degenerate flag of the geco schemes and gbbks2's inner
    factor ``tau_inner``.
    """
    y = _check_step(_check_shape(model, y), dt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y_next, ys_next, tau, aux = SCHEMES[scheme.id].bind(model, dt, scheme)(y, y.tolist())
    _check_result(ys_next)
    return y_next, tau, aux


def step_map(model, scheme: SchemeSpec, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map y -> next state, for Jacobian probes and fixed-point studies."""
    return lambda y: step(model, scheme, y, dt)[0]


@dataclass
class Trajectory:
    """Ordered iterates with per-step conservation and positivity diagnostics.

    ``states`` is the (n+1, N) array of iterates.  ``invariant_defect[n]`` is
    the largest relative drift of any linear invariant between state n and the
    initial state; ``min_component[n]`` is the smallest entry of state n.
    Time of state n is n * dt.
    """

    dt: float
    states: np.ndarray
    invariant_defect: np.ndarray
    min_component: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.states)) * self.dt

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)


def _trajectory(model, dt: float, states: np.ndarray) -> Trajectory:
    """Wrap ``states`` with their invariant defects and minima, computed in one pass."""
    rows = model.invariant_rows
    if rows is None or len(rows) == 0:
        defects = np.zeros(len(states))
    else:
        rows = np.asarray(rows, dtype=float)
        # the stacked product gives each state the bits of ``rows @ state``
        invariants = (rows[None] @ states[:, :, None])[:, :, 0]
        ref = invariants[0]
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        defects = np.max(np.abs(invariants - ref), axis=1) / scale
    return Trajectory(dt, states, defects, np.min(states, axis=1))


def integrate(model, scheme: SchemeSpec, y0, dt: float, n_steps: int) -> Trajectory:
    """Run ``n_steps`` applications of the scheme's step map, bound once for the run.

    ``y0`` and ``dt`` are checked once, and each result as it is produced
    and written into its row of one (n_steps + 1, N) array.  When a checked
    result has the bytes of the state p = 1 or 2 steps back (the least such
    p), the map is not called again and each remaining row repeats the row p
    above it.  This relies on the step map being a deterministic function
    of the state: the schemes' maps are, and so must be the callables of
    a :class:`~posinv.pds.GeneralPds` and of a :class:`GbbksStrategy`.  The
    comparisons are bitwise, so a step that only flips the sign of a zero is
    no fixed point.  Invariant defects and minima are computed once, after
    the last step.  A failing step raises :class:`IntegrationError` carrying
    the rows filled so far, with the step's exception as its ``__cause__``;
    a negative ``n_steps`` or a ``y0`` not of shape (N,) raises ValueError.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    y0 = _check_shape(model, y0)
    advance = SCHEMES[scheme.id].bind(model, dt, scheme)
    states = np.empty((n_steps + 1, *np.shape(y0)))
    states[0] = y0
    done = 1  # a failed check of y0 or dt is reported as step 1
    # a non-finite state is rejected after each step and a non-finite sigma
    # on the active set fails the solve, so overflow, invalid and
    # divide-by-zero warnings carry no extra information here; the exception
    # is raised inside the handler, so no local keeps it in a cycle with this frame
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            y = _check_step(y0, dt)
            ys, last, before = y.tolist(), y.tobytes(), None
            for done in range(1, n_steps + 1):
                y, ys, _, _ = advance(y, ys)
                _check_result(ys)
                states[done] = y
                current = y.tobytes()
                if current == last or current == before:
                    # a pure map repeats a cycle of period p: row n has the bits of row n - p
                    p = 1 if current == last else 2
                    for k in range(1, p + 1):
                        states[done + k::p] = states[done + k - p]
                    break
                last, before = current, last
        except (PosinvError, ValueError) as exc:
            raise IntegrationError(
                f"step {done} of {scheme.id} failed: {exc}",
                trajectory=_trajectory(model, dt, states[:done].copy()),
            ) from exc
        return _trajectory(model, dt, states)
