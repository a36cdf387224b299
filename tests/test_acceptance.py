"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not deferred.  Two stated expectations are
not what the schemes as defined give; their tests assert what the schemes
provably do instead, against oracles that do not use ``integrate`` (see
notes/decisions.md):

* criterion 6, first-order damped scheme on the 2x2 family: the damping
  argument dt*trace(S-) equals -dt*lambda there, making the scheme exact
  (amplification exp(lambda*dt)), so no convergence order is observable and
  exactness is asserted in place of an order of 1;
* criterion 8, stiff crossing times: at dt = 0.1 the scheme gives crossings
  near 1.26 (K=10) and 6.97 (K=100), not 7 and 70.  The exact discrete
  crossings are asserted, and the stated pair where the scheme produces it:
  at dt = 1.0 for the stated K, and at dt = 0.1 for K in {100, 1000}.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

import posinv
from posinv import (
    LinearPds,
    integrate,
    make_scheme,
    phi,
    step,
)
from posinv import stability
from posinv.experiments import crossing_time, limit_crossing_time, observed_orders
from posinv.pds import resolve_builtin

from test_linalg import FIVE, two_by_two

MODEL_5X5 = LinearPds.from_matrix(FIVE)
UNIT_2X2 = LinearPds.from_matrix(two_by_two(1, 1, 1))
Y0_5 = np.array([0.0, 3.0, 3.0, 3.0, 4.0])
Y_STAR_5 = np.array([4.0, 2.0, 2.0, 4.0, 1.0])
BBKS_DT = (5.0 - math.sqrt(3.0)) / 11.0
PERTURBATION = 1e-5 * np.array([-2.0, 1.0, 1.0, -1.0, 1.0])

BUILTINS = ("builtin:paper-2x2", "builtin:paper-5x5", "builtin:paper-stiff?K=10")


def report(number: int, text: str) -> None:
    print(f"[ACCEPTANCE] criterion {number:02d}: PASS - {text}")


def test_criterion_01_gbbks_critical_step():
    for name in ("gbbks1", "gbbks2"):
        crit = stability.critical_step(MODEL_5X5, make_scheme(name))
        assert abs(crit.dt_star - BBKS_DT) <= 1e-6, name
    report(1, f"product-term critical step = (5-sqrt(3))/11 = {BBKS_DT:.7f} within 1e-6")


def test_criterion_02_geco2_critical_step():
    crit = stability.critical_step(MODEL_5X5, make_scheme("geco2"))
    assert abs(crit.dt_star - 0.3572) <= 5e-4
    report(2, f"second-order damped critical step {crit.dt_star:.6f} agrees with 0.3572 to 5e-4")


@pytest.mark.parametrize("name", ["geco2", "gbbks1", "gbbks2"])
def test_criterion_03_stability_bifurcation(name):
    scheme = make_scheme(name)
    dt_star = stability.critical_step(MODEL_5X5, scheme).dt_star
    cap = 100_000

    y = Y0_5.copy()
    dt = dt_star * (1.0 - 1e-3)
    for n in range(cap):
        y = step(MODEL_5X5, scheme, y, dt)[0]
        if np.max(np.abs(y - Y_STAR_5)) < 1e-10:
            break
    else:
        pytest.fail(f"{name}: no convergence below 1e-10 within {cap} steps")

    y = Y_STAR_5 + PERTURBATION
    dt = dt_star * (1.0 + 1e-3)
    for m in range(cap):
        y = step(MODEL_5X5, scheme, y, dt)[0]
        if np.max(np.abs(y - Y_STAR_5)) > 1e-4:
            break
    else:
        pytest.fail(f"{name}: perturbation never grew past 1e-4 within {cap} steps")
    report(3, f"{name}: converged in {n + 1} steps below, diverged in {m + 1} steps above dt*")


def test_criterion_04_geco1_unconditional_stability():
    models = [MODEL_5X5]
    models += [stability.random_conservative_system(seed, 2 + seed % 7) for seed in range(200)]
    for model in models:
        lams = posinv.eigenvalues(model.a)
        lams = lams[np.abs(lams) > 1e-10 * max(np.linalg.norm(model.a, np.inf), 1e-300)]
        cert = stability.unconditional_certificate(model)
        assert cert.holds
        for dt in (1e-3, 1.0, 1e3, 1e6):
            factor = dt * phi(dt * model.trace_s_minus)
            assert np.all(np.abs(1.0 + factor * lams) < 1.0)
    report(4, "first-order damped scheme: all non-kernel multipliers inside the unit "
              "circle on 200 seeded systems and the 5x5, certificate holds")


def test_criterion_05_jacobian_oracle_equivalence():
    from posinv.integrators import step_map

    cases = [(UNIT_2X2, np.array([1.5, 1.5]), 1.0), (MODEL_5X5, Y_STAR_5, 0.25)]
    for model, y_star, dt in cases:
        for name in ("geco1", "geco2", "gbbks1", "gbbks2"):
            scheme = make_scheme(name)
            closed = stability.closed_form_jacobian(model, scheme, dt)
            probed = stability.numerical_jacobian(step_map(model, scheme, dt), y_star)
            gap = float(np.max(np.abs(probed - closed)))
            assert gap <= 1e-4, (name, model.dimension, gap)
    report(5, "finite-difference Jacobians match the closed forms entrywise "
              "within 1e-4 at h = 1e-6")


def test_criterion_06_convergence_orders():
    doc = resolve_builtin("builtin:paper-2x2?a=1&b=1&c=1")
    model = doc.build()
    dts = [2.0 ** -k for k in range(3, 11)]
    bands = {"gbbks1": (0.9, 1.1), "geco2": (1.9, 2.1), "gbbks2": (1.9, 2.1)}
    for name, (lo, hi) in bands.items():
        tail = observed_orders(model, make_scheme(name), doc.y0, 1.0, dts)[-1][2]
        assert lo <= tail <= hi, (name, tail)
    report(6, "observed orders: gbbks1 first order, geco2/gbbks2 second order on the 2x2")


def _two_by_two_flow(a: float, b: float, c: float, y0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form 2x2 solution y* + exp(lambda*t)(y0 - y*), lambda = -(a*c + b).

    y* = (b, a) * m / (b + a*c) spans the kernel and keeps the invariant
    m = y_1 + c*y_2 of y0.
    """
    mass = y0[0] + c * y0[1]
    y_star = np.array([b, a]) * mass / (b + a * c)
    return y_star + math.exp(-(a * c + b) * t) * (y0 - y_star)


def test_criterion_06_geco1_order_as_stated():
    """Stated criterion: geco1 order on the 2x2 in [0.9, 1.1].

    Not attainable: on this family trace(S-) = a*c + b = -lambda, so the
    scheme's nonzero-mode multiplier is 1 - (1 - exp(dt*lambda)) =
    exp(dt*lambda), i.e. the exact flow; errors sit at roundoff for every dt
    and no order is observable.  What the scheme provably does is asserted
    instead: supplement a proves the identity, and every error at t = 1
    against the closed-form solution is at most 1e-13*max|y0| (a first-order
    scheme gives about 1e-4 there).  The genuine first order is asserted on
    the 5x5 problem.  See notes/decisions.md.
    """
    triples = [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (0.3, 4.0, 2.0)]
    # supplement a: exactness identity on the 2x2 family
    for a, b, c in triples:
        lam = -(a * c + b)
        for dt in (0.125, 0.5, 1.0):
            multiplier = 1.0 + dt * phi(dt * (a * c + b)) * lam
            assert abs(multiplier - math.exp(dt * lam)) <= 1e-15
    # supplement b: genuine first order on the 5x5
    tail_5 = observed_orders(MODEL_5X5, make_scheme("geco1"), Y0_5, 1.0,
                             [2.0 ** -k for k in range(3, 11)])[-1][2]
    assert 0.9 <= tail_5 <= 1.1

    worst = 0.0
    for a, b, c in triples:
        doc = resolve_builtin(f"builtin:paper-2x2?a={a:g}&b={b:g}&c={c:g}")
        exact = _two_by_two_flow(a, b, c, doc.y0, 1.0)
        bound = 1e-13 * float(np.max(np.abs(doc.y0)))
        for k in range(3, 11):
            traj = integrate(doc.build(), make_scheme("geco1"), doc.y0, 2.0 ** -k, 2 ** k)
            err = float(np.max(np.abs(traj.final - exact)))
            assert err <= bound, (
                f"geco1 on the 2x2 family (a, b, c) = {(a, b, c)} at dt = 2^-{k}: "
                f"error {err:.2e} at t = 1 exceeds the roundoff bound {bound:.1e}; "
                "the scheme should be exact there (multiplier exp(dt*lambda))"
            )
            worst = max(worst, err)
    report(6, f"first-order damped scheme exact on the 2x2 family (worst error "
              f"{worst:.1e} over 3 parameter sets and dt = 2^-3..2^-10); genuine "
              f"order on the 5x5 = {tail_5:.3f}")


def test_criterion_07_conservation_and_positivity():
    for address in BUILTINS:
        doc = resolve_builtin(address)
        model = doc.build()
        for name in ("geco1", "geco2", "gbbks1", "gbbks2"):
            for dt in (0.1, 1.0, 10.0, 100.0):
                traj = integrate(model, make_scheme(name), doc.y0, dt, 30)
                assert max(traj.invariant_defect) <= 1e-12, (address, name, dt)
                if np.all(doc.y0 > 0):
                    assert min(traj.min_component) > 0.0, (address, name, dt)
                else:
                    # boundary start: nonnegative, and no zero is introduced
                    assert min(traj.min_component) >= 0.0
                    zeros0 = {int(i) for i in np.flatnonzero(doc.y0 == 0.0)}
                    for state in traj.states[1:]:
                        zeros = {int(i) for i in np.flatnonzero(state == 0.0)}
                        assert zeros <= zeros0, (address, name, dt)
        # baselines conserve invariants in their stable regime
        for name in ("euler", "heun"):
            traj = integrate(model, make_scheme(name), doc.y0, 0.1, 30)
            assert max(traj.invariant_defect) <= 1e-12, (address, name)
    report(7, "invariant defect <= 1e-12 per step for every scheme; iterates of the "
              "positivity-preserving schemes stay positive for dt in {0.1, 1, 10, 100}")


def test_criterion_08_limit_crossing_oracle():
    got = limit_crossing_time()
    assert abs(got - math.log(1.98)) <= 1e-6
    report(8, f"stiff-limit reference crossing {got:.9f} = ln(1.98) to 1e-6")


#: y2/y3 crossings of geco1 on paper-stiff?K, keyed by (K, dt): the discrete map
#: I + Phi*A iterated at 40 digits by scripts/gen_oracle_values.py
DISCRETE_CROSSINGS = {
    (10.0, 0.1): 1.25934467891005266,
    (100.0, 0.1): 6.96545665982226180,
    (1000.0, 0.1): 68.4429353059640287,
    (10.0, 1.0): 8.27136663437158970,
    (100.0, 1.0): 69.6516953878457483,
}
#: y2/y3 crossings of the exact flow (same script)
FLOW_CROSSINGS = {10.0: 0.78698921, 100.0: 0.69304617}


def _geco1_crossing(K: float, dt: float) -> float:
    doc = resolve_builtin(f"builtin:paper-stiff?K={K:g}")
    traj = integrate(doc.build(), make_scheme("geco1"), doc.y0, dt, int(round(100.0 / dt)))
    states = np.array(traj.states)
    return crossing_time(np.array(traj.times), states[:, 1] - states[:, 2])


def test_criterion_08_stiff_crossings_as_stated():
    """Stated criterion: crossings within 20% of 7 (K=10) and 70 (K=100).

    At dt = 0.1 the scheme as defined gives 1.2593 and 6.9655: geco1 on a
    linear model is the linear map I + Phi*A with
    Phi = -expm1(-dt*(K+1))/(K+1), and its crossings are asserted against
    that map iterated at 40 digits, to 1e-12 relative.  Damping delays each
    crossing past the exact flow's, by a larger factor at the stiffer K.
    The slow-mode dilation law dt*(K+1)/(1 - exp(-dt*(K+1))) ignores the fast
    mode and misses K=10 by 3%, so it is not used.

    The stated pair is asserted where the scheme does produce it: within 20%
    at dt = 1.0 for the stated K (8.27 and 69.65), and at dt = 0.1 for K in
    {100, 1000}.  The paper text in the repository holds only the abstract,
    so it does not settle which of the two the stated values belong to.
    See notes/decisions.md.
    """
    got = {key: _geco1_crossing(*key) for key in DISCRETE_CROSSINGS}
    # supplement a: the exact discrete prediction
    for key, expected in DISCRETE_CROSSINGS.items():
        assert abs(got[key] - expected) <= 1e-12 * expected, (
            f"geco1 crossing at (K, dt) = {key} is {got[key]!r}, the discrete map "
            f"I + Phi*A gives {expected!r}"
        )
    # damping delays the crossing, more so at the stiffer K
    delay = {K: got[(K, 0.1)] / FLOW_CROSSINGS[K] for K in FLOW_CROSSINGS}
    assert 1.0 < delay[10.0] < delay[100.0], delay
    # supplement b: ten times the stated K reproduces the stated values at dt = 0.1
    assert abs(got[(100.0, 0.1)] - 7.0) <= 0.2 * 7.0
    assert abs(got[(1000.0, 0.1)] - 70.0) <= 0.2 * 70.0
    # the stated pair at the stated K, where the scheme produces it: dt = 1.0
    assert abs(got[(10.0, 1.0)] - 7.0) <= 0.2 * 7.0
    assert abs(got[(100.0, 1.0)] - 70.0) <= 0.2 * 70.0
    report(8, f"geco1 crossings match the discrete map to 1e-12: {got[(10.0, 0.1)]:.4f} "
              f"(K=10) and {got[(100.0, 0.1)]:.4f} (K=100) at dt=0.1, delayed "
              f"{delay[10.0]:.2f}x and {delay[100.0]:.2f}x; stated 7/70 within 20% at "
              f"dt=1.0 ({got[(10.0, 1.0)]:.2f}, {got[(100.0, 1.0)]:.2f})")


def test_criterion_09_region_endpoint():
    out = stability.geco2_region_endpoint()
    assert out.stability_residual <= 1e-10
    assert abs(out.reduced_equation_residual) <= 1e-8
    assert not out.agrees_with_reported  # the disagreement must be flagged
    report(9, f"region endpoint z* = {out.z_star:.9f}: |R(z*)| = 1 to 1e-10, reduced "
              f"residual {out.reduced_equation_residual:.1e}, reported bracket "
              f"{stability.REPORTED_ENDPOINT_BRACKET} flagged as not reproducible")


def test_criterion_10_micro_step_oracles():
    y = np.array([2.0, 1.0])
    y1 = step(UNIT_2X2, make_scheme("geco1"), y, 1.0)[0]
    npt.assert_allclose(y1, [1.5676676416183063459, 1.4323323583816936541], atol=1e-10)
    y1 = step(UNIT_2X2, make_scheme("geco2"), y, 1.0)[0]
    npt.assert_allclose(y1, [1.4690693006527240241, 1.5309306993472759759], atol=1e-10)
    y1, tau, _ = step(UNIT_2X2, make_scheme("gbbks1"), y, 1.0)
    npt.assert_allclose(y1, [4.0 / 3.0, 5.0 / 3.0], atol=1e-14)
    assert abs(tau - 2.0 / 3.0) <= 1e-14
    y1, tau, _ = step(UNIT_2X2, make_scheme("gbbks2", 1.0), y, 1.0)
    npt.assert_allclose(y1, [8.0 / 5.0, 7.0 / 5.0], atol=1e-14)
    assert abs(tau - 6.0 / 5.0) <= 1e-14
    report(10, "worked single-step values reproduced to 1e-10 (rationals to 1e-14)")


#: w(a=b=c=1, y=(2, 1), dt=1) = (W_21, -W_21), 40 digits from scripts/gen_oracle_values.py
W_21 = 0.27067056647322538379


def geco2_w(a: float, b: float, c: float, y, dt: float) -> np.ndarray:
    """Damping-correction vector of the second-order scheme on the 2x2 model.

    Evaluates w = (2*phi(x)*A - 2*A - dt*phi(x)*A^2) y with x = dt*(a*c + b)
    directly from the matrix form.
    """
    mat = two_by_two(a, b, c)
    p = phi(dt * (a * c + b))
    return (2.0 * p * mat - 2.0 * mat - dt * p * (mat @ mat)) @ np.asarray(y, dtype=float)


def test_criterion_11_w_property_suite():
    """1000 sampled cases: antisymmetry w_1 = -c*w_2 and the three-case sign table.

    The antisymmetry is asserted in the direction implied by direct evaluation
    of the matrix formula (w is proportional to the decay eigenvector
    (1, -1/c) and orthogonal to the invariant row (1, c)); see
    notes/decisions.md for the subscript swap against the stated relation.
    The worked example and a kernel state of the 2x2 family come first.
    """
    npt.assert_allclose(geco2_w(1, 1, 1, [2.0, 1.0], 1.0), [W_21, -W_21], rtol=1e-13)
    npt.assert_allclose(geco2_w(2, 1, 0.5, [1.0, 2.0], 0.7), [0.0, 0.0], atol=1e-14)
    rng = np.random.default_rng(2024)
    count = 0
    for _ in range(1000):
        a, b, c = rng.uniform(0.05, 20.0, 3)
        dt = rng.uniform(0.001, 20.0)
        y = rng.uniform(0.01, 20.0, 2)
        w = geco2_w(a, b, c, y, dt)
        # the identity cancels exactly in real arithmetic; near the kernel w is
        # tiny against the matrix-vector work, so the 1e-12 relative bound is
        # taken against the evaluation scale as well
        norm_a = max(a * c + b * c, a + b)
        eval_scale = (2.0 + dt * phi(dt * (a * c + b)) * norm_a) * norm_a * max(y)
        assert abs(w[0] + c * w[1]) <= 1e-12 * max(abs(w[0]), abs(c * w[1]), eval_scale)
        gap = y[0] - (b / a) * y[1]
        if abs(gap) > 1e-12 * max(abs(y[0]), abs(y[1]), 1.0):
            assert np.sign(w[0]) == np.sign(gap)
            count += 1
    # the kernel branch: w vanishes on sampled kernel states
    for _ in range(50):
        a, b, c = rng.uniform(0.05, 20.0, 3)
        y2 = rng.uniform(0.01, 20.0)
        w = geco2_w(a, b, c, [(b / a) * y2, y2], rng.uniform(0.001, 20.0))
        scale = a * max((b / a) * y2, y2)
        assert np.max(np.abs(w)) <= 1e-12 * max(scale, 1.0)
    assert count >= 990  # sampling essentially never lands on the kernel line
    report(11, f"antisymmetry and sign table hold on {count} off-kernel samples "
               "plus 50 kernel states")
