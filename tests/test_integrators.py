"""Step maps, the scalar product-term solver, and the trajectory driver.

Worked single-step expected values were computed offline at 40 decimal
digits by evaluating the scheme formulas directly (see
scripts/gen_oracle_values.py); rational cases were solved in closed form.
For the unit-parameter 2x2 model with y = (2, 1), dt = 1:

    damped kernel value   phi(2)  = 0.43233235838169365405
    first-order step      (1.5676676416183063459, 1.4323323583816936541)
    second-order w        (0.27067056647322538379, -0.27067056647322538379)
    second-order step     (1.4690693006527240241, 1.5309306993472759759)
    product-term steps    (4/3, 5/3) with tau = 2/3, (8/5, 7/5) with tau = 6/5
    Euler                 (1, 2); Heun: identity (A + A^2/2 = 0 at dt = 1)
"""

import builtins
import dataclasses
import importlib.util
import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posinv
from posinv import (
    GbbksStrategy,
    GeneralPds,
    LinearPds,
    SchemeSpec,
    integrate,
    integrators,
    make_scheme,
    phi,
    solve_tau,
    stability,
    step,
)
from posinv.errors import IntegrationError, ModelError, NumericsError, SolverError
from posinv.integrators import SCHEME_IDS

from test_linalg import FIVE, two_by_two

_ORACLE_SPEC = importlib.util.spec_from_file_location(
    "gen_oracle_values", Path(__file__).resolve().parent.parent / "scripts" / "gen_oracle_values.py"
)
oracle = importlib.util.module_from_spec(_ORACLE_SPEC)
_ORACLE_SPEC.loader.exec_module(oracle)

PHI_2 = 0.43233235838169365405
PHI_LN2 = 0.72134752044448170368
GECO1_STEP = (1.5676676416183063459, 1.4323323583816936541)
GECO2_STEP = (1.4690693006527240241, 1.5309306993472759759)

UNIT_2X2 = LinearPds.from_matrix(two_by_two(1, 1, 1))
MODEL_5X5 = LinearPds.from_matrix(FIVE)
Y21 = np.array([2.0, 1.0])


def nonlinear_model():
    """f = (y2^2 - y1*y2, y1*y2 - y2^2) with rates d = (y2, y2); mass conserved."""
    return GeneralPds(
        dimension=2,
        production=lambda y: np.array([y[1] ** 2, y[0] * y[1]]),
        destruction_rate=lambda y: np.array([y[1], y[1]]),
        invariant_rows=np.array([[1.0, 1.0]]),
    )


def robertson_model():
    """Robertson's kinetics: y1' = -0.04 y1 + 1e4 y2 y3, y3' = 3e7 y2^2, mass conserved."""
    return GeneralPds(
        dimension=3,
        production=lambda y: np.array([1e4 * y[1] * y[2], 0.04 * y[0], 3e7 * y[1] ** 2]),
        destruction_rate=lambda y: np.array([0.04, 1e4 * y[2] + 3e7 * y[1], 0.0]),
        invariant_rows=np.ones((1, 3)),
    )


def production_only_model():
    """f = (y2, y1) >= 0 on the positive orthant: product-term sets stay empty."""
    return GeneralPds(
        dimension=2,
        production=lambda y: np.array([y[1], y[0]]),
        destruction_rate=lambda y: np.zeros(2),
    )


def desk_tau_inputs():
    """400 seeded product-term problems with 1 to 4 factors of order one."""
    rng = np.random.default_rng(3)
    for _ in range(400):
        m = rng.integers(1, 5)
        c = rng.uniform(0.3, 3.0, m)
        d = -rng.uniform(0.5, 4.0, m)
        s = rng.uniform(0.3, 3.0, m)
        r = rng.uniform(0.4, 2.5)
        yield c, d, s, r


def stiff_tau_inputs():
    """100 seeded stiff problems: 7 to 10 factors, tau_max = 1e-12, two subnormal c.

    Rates -d/c span 12 decades and c spans 300; the subnormal components
    keep at least 2e15 ulps, so one rounding of c + d*tau moves tau by less
    than 1e-15 relative.
    """
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.integers(7, 11)
        c = 10.0 ** rng.uniform(-300.0, 0.0, m)
        c[:2] = rng.uniform(1e-308, 2.2e-308, 2)
        rate = 10.0 ** rng.uniform(0.0, 12.0, m)
        rate[rng.integers(m)] = 1e12
        yield c, -c * rate, c * 10.0 ** rng.uniform(-1.0, 1.0, m), rng.uniform(0.4, 2.5)


def deep_subnormal_tau_inputs():
    """60 seeded problems whose binding component is k * 2^-1074, k from 10^1.5 to 10^12.

    The binding triple has sigma within a factor 2 of c and its rate -d/c
    from 1 to 1000; zero to three order-one factors with lower rates join
    it.  Only draws whose binding factor at the root is at least 2^-1074
    are kept, so the root itself keeps every float factor positive.
    """
    rng = np.random.default_rng(11)
    kept = 0
    while kept < 60:
        m = rng.integers(1, 5)
        rate = 10.0 ** rng.uniform(0.0, 3.0)
        c = 10.0 ** rng.uniform(-1.0, 0.5, m)
        d = -c * rate * rng.uniform(0.01, 1.0, m)
        c[0] = math.ulp(0.0) * round(10.0 ** rng.uniform(1.5, 12.0))
        d[0] = -c[0] * rate
        s = c * 10.0 ** rng.uniform(-0.3, 0.3, m)
        r = rng.uniform(0.4, 2.5)
        root = oracle.product_term_root(c, d, s, r)
        if c[0] + d[0] * root >= math.ulp(0.0):
            kept += 1
            yield c, d, s, r


def boundary_tau_inputs():
    """300 seeded problems whose first triple has a subnormal c = k * 2^-1074, k from 1 to 10^15.6.

    Its positivity boundary b (the largest float tau keeping c + d*tau
    positive) lies between 1/2 and 1 of c/(-d).  Zero to three order-one
    factors with lower rates join it, and the last sigma is set so that the
    exact root lies, in turn, within 4 ulps of b, between b and c/(-d), or
    0.1% to 90% below b.
    """
    rng = np.random.default_rng(13)
    kept = 0
    while kept < 300:
        m = rng.integers(1, 5)
        r = 1.0 if rng.random() < 0.5 else rng.uniform(0.4, 2.5)
        rate = 10.0 ** rng.uniform(-3.0, 12.0)
        c = 10.0 ** rng.uniform(-2.0, 0.5, m)
        c[0] = math.ulp(0.0) * round(10.0 ** rng.uniform(0.0, 15.6))
        d = -c * rate * rng.uniform(0.001, 1.0, m)
        d[0] = -c[0] * rate
        s = c * 10.0 ** rng.uniform(-1.0, 1.0, m)
        if not ((s > 0.0).all() and (d < 0.0).all()):
            continue
        b = integrators._last_positive_tau(c[0], d[0])
        with mp.workdps(60):
            if kept % 3 == 0:
                root = mp.mpf(b) + rng.uniform(-4.0, 4.0) * mp.mpf(math.ulp(b))
            elif kept % 3 == 1:
                root = mp.mpf(b) + rng.uniform(0.05, 0.95) * (mp.mpf(c[0]) / -mp.mpf(d[0]) - b)
            else:
                root = mp.mpf(b) * rng.uniform(0.1, 0.999)
            prod = mp.fprod(
                (mp.mpf(ci) + mp.mpf(di) * root) / mp.mpf(si) for ci, di, si in zip(c, d, s)
            )
            if not (isinstance(prod, mp.mpf) and prod > 0):
                continue  # the root would leave a factor negative
            # G scales as sigma_last^-r: this sigma puts G's zero at root
            s[-1] = float(mp.mpf(s[-1]) * prod / root ** (1 / mp.mpf(r)))
        if 0.0 < s[-1] < math.inf:
            kept += 1
            yield [tuple(t) for t in zip(c.tolist(), d.tolist(), s.tolist())], float(r)


def subnormal_tau_inputs():
    """3000 seeded sets of one to three triples (c, d, sigma) with r = 1, most c subnormal.

    c is 2^U(-1074, -1000) with probability 0.7, else 2^U(-1022, 10);
    d = -2^U(-60, 60); sigma is c*2^U(-3, 3) with probability 0.6, else
    2^U(-1074, 1023), and never below 2^-1074.
    """
    rng = np.random.default_rng(17)
    for _ in range(3000):
        triples = []
        for _ in range(rng.integers(1, 4)):
            c = 2.0 ** (rng.uniform(-1074, -1000) if rng.random() < 0.7 else rng.uniform(-1022, 10))
            d = -(2.0 ** rng.uniform(-60, 60))
            s = c * 2.0 ** rng.uniform(-3, 3) if rng.random() < 0.6 else 2.0 ** rng.uniform(-1074, 1023)
            triples.append((c, d, max(s, math.ulp(0.0))))
        yield triples


def all_normal_tau_inputs():
    """2000 seeded sets of one to four triples with entries 2^U(-1022, 1000); r is 1 or U(0.4, 3)."""
    rng = np.random.default_rng(23)
    for _ in range(2000):
        triples = [
            (2.0 ** rng.uniform(-1022, 1000), -(2.0 ** rng.uniform(-1022, 1000)), 2.0 ** rng.uniform(-1022, 1000))
            for _ in range(rng.integers(1, 5))
        ]
        yield triples, 1.0 if rng.random() < 0.5 else rng.uniform(0.4, 3.0)


def rescaled(c, d, s):
    """The triple times 2^k that puts its largest entry in [2^1020, 2^1021).

    Only a triple with a subnormal entry is scaled, and only if k > 0.
    """
    k = 1021 - math.frexp(max(c, -d, s))[1]
    if min(c, -d, s) >= 2.0**-1022 or k <= 0:
        return c, d, s
    return math.ldexp(c, k), math.ldexp(d, k), math.ldexp(s, k)


def clamped_newton(factors, r):
    """The subnormal path without the boundary test: Newton on rescaled triples, the clamp, the floor.

    A tau that is not positive becomes 2^-1074 where that keeps every
    factor positive; otherwise the solve fails.
    """
    tau = integrators._newton_root([rescaled(*triple) for triple in factors], r)
    for c, d, _ in factors:
        if not c + d * tau > 0.0:
            tau = integrators._last_positive_tau(c, d)
    if tau > 0.0:
        return tau
    if all(c + d * math.ulp(0.0) > 0.0 for c, d, _ in factors):
        return math.ulp(0.0)
    raise SolverError("no positive float tau keeps every factor positive")


class TestPhi:
    def test_exact_branch_values(self):
        assert phi(0.0) == 1.0
        assert phi(math.inf) == 0.0
        npt.assert_allclose(phi(math.log(2.0)), PHI_LN2, rtol=1e-15)
        npt.assert_allclose(phi(2.0), PHI_2, rtol=1e-15)

    def test_series_region(self):
        # extended-precision values around the series cutoff
        npt.assert_allclose(phi(1e-6), 0.999999500000166666625, rtol=1e-15)
        npt.assert_allclose(phi(9e-6), 0.9999955000134999696251, rtol=1e-15)
        npt.assert_allclose(phi(2e-5), 0.9999900000666663333347, rtol=1e-15)

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            phi(-1e-12)
        with pytest.raises(ValueError):
            phi(math.nan)

    @given(st.floats(0.0, 1e6))
    def test_range_and_monotonicity(self, x):
        value = phi(x)
        assert 0.0 < value <= 1.0
        assert phi(x + 0.5) <= value


class TestSolveTau:
    def test_single_factor_closed_form(self):
        # r=1, sigma=c: tau = c/(c-d)
        assert solve_tau([2.0], [-1.0], [2.0], 1.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_empty_index_set(self):
        assert solve_tau([], [], [], 1.0) == 1.0

    def test_second_closed_form(self):
        # tau = (2 - tau/3)/(4/3)
        got = solve_tau([2.0], [-1.0 / 3.0], [4.0 / 3.0], 1.0)
        assert got == pytest.approx(6.0 / 5.0, abs=1e-14)

    def test_rejects_bad_preconditions(self):
        for c, d, s, r in [([0.0], [-1], [1], 1), ([1], [0.5], [1], 1),
                           ([1], [-1], [0.0], 1), ([1], [-1], [1], 0.0),
                           ([1], [-1], [1], math.inf)]:
            with pytest.raises(ValueError):
                solve_tau(c, d, s, r)

    @pytest.mark.parametrize(
        "c, d, s", [([math.inf], [-1.0], [1.0]), ([1.0], [-math.inf], [1.0]), ([1.0], [-1.0], [math.inf])]
    )
    def test_rejects_non_finite_data(self, c, d, s):
        with pytest.raises(ValueError, match="finite"):
            solve_tau(c, d, s, 1.0)

    def test_no_positive_float_tau_raises_with_bracket(self):
        """c = sigma = 2^-1074, d = -1: c + d*tau is 0.0 at every positive float tau."""
        tiny = math.ulp(0.0)
        with pytest.raises(SolverError) as info:
            solve_tau([tiny], [-1.0], [tiny], 1.0)
        assert info.value.bracket == (0.0, tiny)

    def test_underflowed_tau_max_leaves_the_bracket_nonempty(self):
        """c = 1e-323, d = -6.34: c/(-d) underflows to 0.0, but the root is positive.

        The bracket's upper end is at least 2^-1074, so it still holds the root.
        """
        with pytest.raises(SolverError) as info:
            solve_tau([1e-323], [-6.34], [1.0], 1.0)
        assert info.value.bracket == (0.0, math.ulp(0.0))

    def test_integrate_reports_the_same_case_as_a_nonpositive_factor(self):
        """Inside ``integrate`` that case is the same ``SolverError``, naming the factor.

        Rate 2^1023 on y_1 = 2^-1074 at dt = 2^51 makes the active triple
        (2^-1074, -1, 2^-1074) of the first gbbks1 step.
        """
        rate = 2.0**1023
        model = GeneralPds(
            dimension=2,
            production=lambda y: np.array([0.0, rate * y[0]]),
            destruction_rate=lambda y: np.array([rate, 0.0]),
        )
        with pytest.raises(IntegrationError, match=r"at c = 5e-324, d = -1.0$") as info:
            integrate(model, make_scheme("gbbks1"), np.array([math.ulp(0.0), 1.0]), 2.0**51, 3)
        assert type(info.value.__cause__) is SolverError
        assert info.value.__cause__.bracket == (0.0, math.ulp(0.0))
        assert len(info.value.trajectory) == 1

    def test_residual_and_positivity_invariants(self):
        """|G(tau)| <= 1e-14 and c + d*tau > 0 on desk-scale inputs."""
        for c, d, s, r in desk_tau_inputs():
            tau = solve_tau(c, d, s, r)
            assert np.all(c + d * tau > 0.0)
            residual = np.prod((c + d * tau) / s) ** r - tau
            assert abs(residual) <= 1e-14

    @given(
        st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0),
        st.floats(0.3, 3.0),
    )
    def test_root_in_open_bracket(self, c, d_mag, s, r):
        tau = solve_tau([c], [-d_mag], [s], r)
        assert 0.0 < tau < c / d_mag

    @pytest.mark.parametrize(
        "inputs", [desk_tau_inputs, stiff_tau_inputs, deep_subnormal_tau_inputs]
    )
    def test_matches_independent_oracle(self, inputs):
        """Within 1e-14 relative of a 50-digit root of G; every factor stays positive.

        On the stiff set some roots lie within rounding of tau_max (and some
        above its float value), so the float tau_max itself may be returned.
        On the deep subnormal set G must be evaluated on rescaled triples:
        at the resolution of 2^-1074 its float value is a step function.
        """
        for c, d, s, r in inputs():
            tau = solve_tau(c, d, s, r)
            assert (c + d * tau > 0.0).all()
            assert 0.0 < tau <= np.min(c / -d)
            root = oracle.product_term_root(c, d, s, r)
            assert abs(tau - root) <= 1e-14 * root

    def test_underflowed_product_gives_smallest_positive_tau(self):
        """G(0) = (1e-200)^2 rounds to 0.0; the root is below every positive float.

        2^-1074 is the answer only where it keeps every factor positive: a
        third, subnormal factor 2^-1074 - tau rounds to 0.0 there, so no
        positive float is left and the solve fails.
        """
        assert solve_tau([1e-200, 1e-200], [-1.0, -1.0], [1.0, 1.0], 1.0) == math.ulp(0.0)
        tiny = math.ulp(0.0)
        with pytest.raises(SolverError):
            solve_tau([1e-200, 1e-200, tiny], [-1.0, -1.0, -1.0], [1.0, 1.0, tiny], 1.0)

    @pytest.mark.parametrize(
        "c, d, s",
        [
            ([math.ulp(0.0)], [-1.0], [1e308]),
            ([1e-200, 1e-200], [-1e300, -1e300], [1.0, 1.0]),
        ],
        ids=["subnormal-beside-large-sigma", "all-normal"],
    )
    def test_underflowed_product_with_no_positive_float_raises(self, c, d, s):
        """G(0) rounds to 0.0, and c_1 + d_1*2^-1074 is already nonpositive: no tau is left.

        The smallest positive float would return a zero or negative factor.
        """
        assert c[0] + d[0] * math.ulp(0.0) <= 0.0
        with pytest.raises(SolverError):
            solve_tau(c, d, s, 1.0)

    @pytest.mark.parametrize(
        "units, root_value",
        [((1, -1000), 1.0 / 1001.0), ((4, -40), 1.0 / 11.0)],
        ids=["one_ulp", "four_ulps"],
    )
    def test_one_ulp_component_stays_positive(self, units, root_value):
        """A factor that rounds to 0 at the root bounds tau by the last positive float.

        With c = sigma = 2^-1074 and d = -1000 * 2^-1074 the root is 1/1001,
        where c + d*tau rounds to 0.0 (its exact value, 2^-1074/1001, is below
        the smallest subnormal).  The solver returns the largest tau whose
        factor is still the positive 2^-1074.  With c = sigma = 4 * 2^-1074
        and d = -40 * 2^-1074 the root is 1/11 and the factor there 2^-1074/2.75;
        half of 2^-1074 underflows to 0.0 unless the bound is formed rescaled.
        """
        c = s = np.array([units[0] * math.ulp(0.0)])
        d = np.array([units[1] * math.ulp(0.0)])
        tau = solve_tau(c, d, s, 1.0)
        root = oracle.product_term_root(c, d, s, 1.0)
        assert float(root) == pytest.approx(root_value, rel=1e-15)
        assert 0.0 < tau < root
        assert (c + d * tau > 0.0).all()
        assert (c + d * math.nextafter(tau, math.inf) == 0.0).all()

    def test_last_positive_tau_over_its_whole_range(self):
        """20,000 seeded (c, d): b keeps c + d*b positive, and the next float up does not.

        c is 2^U(-1074, -1022) or k * 2^-1074 with k from 1 to 64; -d is
        2^U(-1074, 1023.99).  That includes -d >= 2^1020, where the scaling
        exponent is not positive, the threshold is not exact and only the
        nextafter loops settle b.  A b of 0.0 means that no positive float
        keeps the factor positive.
        """
        rng = np.random.default_rng(19)
        tiny = math.ulp(0.0)
        zeros = huge = 0
        for _ in range(20_000):
            c = 2.0 ** rng.uniform(-1074, -1022) if rng.random() < 0.7 else int(rng.integers(1, 65)) * tiny
            d = -(2.0 ** rng.uniform(-1074, 1023.99))
            b = integrators._last_positive_tau(c, d)
            if b == 0.0:
                assert not c + d * tiny > 0.0, (c, d)
                zeros += 1
            else:
                assert c + d * b > 0.0, (c, d)
                assert not c + d * math.nextafter(b, math.inf) > 0.0, (c, d)
            huge += -d >= 2.0**1020
        assert zeros > 1000 and huge > 10

    def test_all_normal_solve_is_the_bare_newton_loop(self):
        """On triples of normal floats ``_newton_tau`` returns the bits of ``_newton_root``.

        Nothing is scaled and no boundary clamps, so a solve with no
        subnormal entry (every ``reproduce`` solve) runs the Newton loop
        alone.  Draws whose Newton loop ends at a tau that is not positive
        are left to the floor rule and its tests.  A ``prod**r`` beyond the
        float range (r > 1 near the float limit) is G = +inf, not an error.
        """
        desk = [(list(zip(c.tolist(), d.tolist(), s.tolist())), r) for c, d, s, r in desk_tau_inputs()]
        compared = 0
        for factors, r in desk + list(all_normal_tau_inputs()):
            tau = integrators._newton_root(factors, r)
            if tau > 0.0:
                assert integrators._newton_tau(factors, r).hex() == tau.hex(), (factors, r)
                compared += 1
        assert compared > 400 + 900

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_lift_cache_hit_and_miss_give_the_bits_of_a_cold_solve(self, r, monkeypatch):
        """One slot across solves whose subnormal triple alternates between two keys.

        A solve that meets the slot's key reuses its lift and boundary (a
        hit); one that meets the other key computes them again, one
        ``_last_positive_tau`` call, and replaces the slot (a miss).  Both
        return the bits of ``_newton_tau(factors, r)`` without a slot.  Each
        key sits beside a normal triple drawn afresh for every solve; the
        keys differ in d alone, so a key that compared c only would fail.
        """
        tiny = math.ulp(0.0)
        # the keys share c and sigma, as the stalled component of a stiff run does
        keys = [(3 * tiny, -1e6 * tiny, 3 * tiny), (3 * tiny, -2e5 * tiny, 3 * tiny)]
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(300):
            normal = (float(rng.uniform(0.5, 2.0)), -float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.5, 2.0)))
            cases.append([keys[int(rng.integers(2))], normal])
        cold = [integrators._newton_tau(factors, r) for factors in cases]
        boundaries = []
        last_positive_tau = integrators._last_positive_tau

        def counted(c, d):
            boundaries.append(c)
            return last_positive_tau(c, d)

        monkeypatch.setattr(integrators, "_last_positive_tau", counted)
        slot = [None, None, None]
        for factors, want in zip(cases, cold):
            # equal keys that are not the same tuple, as a run's triples are
            factors = [tuple(float(v) for v in factors[0]), factors[1]]
            assert integrators._newton_tau(factors, r, slot).hex() == want.hex(), factors
            assert slot[0] == factors[0]
        misses = 1 + sum(a[0] != b[0] for a, b in zip(cases, cases[1:]))
        assert len(boundaries) == misses and 100 < misses < 200

    def test_overflowed_power_is_a_positive_g(self):
        """(1e200 - tau)^2 overflows the float range up to tau ~ 1e200 - 1e154: G is +inf there.

        The root lies within 1e100 of tau_max = 1e200, so the solve bisects
        through the overflowed range and returns a tau next to the root that
        keeps the factor positive.
        """
        c, d, s = [1e200], [-1.0], [1.0]
        with pytest.raises(OverflowError):
            (c[0] / s[0]) ** 2.0
        assert integrators._evaluate(list(zip(c, d, s)), 2.0, 0.0) == (math.inf, -math.inf)
        tau = solve_tau(c, d, s, 2.0)
        assert c[0] + d[0] * tau > 0.0
        root = oracle.product_term_root(c, d, s, 2.0)
        assert abs(tau - root) <= 1e-14 * root

    def test_boundary_test_gives_the_bits_of_newton_and_clamp(self, monkeypatch):
        """Where the boundary test settles a solve, Newton would have been clamped to the same bits.

        The draws include roots within a few ulps of the boundary on either
        side; both the boundary test and the Newton loop must decide some.
        """
        newton_loops = []
        newton_root = integrators._newton_root

        def counted(factors, r):
            newton_loops.append(1)
            return newton_root(factors, r)

        monkeypatch.setattr(integrators, "_newton_root", counted)
        decided = 0
        for factors, r in boundary_tau_inputs():
            expected = clamped_newton(factors, r)
            newton_loops.clear()
            tau = integrators._newton_tau(factors, r)
            assert tau.hex() == expected.hex(), (factors, r)
            decided += not newton_loops
        assert 50 < decided < 250

    def test_boundary_bound_solve_evaluates_g_once(self, monkeypatch):
        """gbbks1 on ``paper-stiff?K=1e+06`` from y1 = 2^-1074: G is evaluated at the boundary only.

        The root, about 1/(1 + K*dt), lies near twice the largest tau that
        keeps the first factor 2^-1074 - K*dt*2^-1074*tau positive.
        """
        evaluations = []
        evaluate = integrators._evaluate

        def counted(factors, r, tau):
            evaluations.append(tau)
            return evaluate(factors, r, tau)

        model = PAPER_STIFF.build()
        y = np.array([math.ulp(0.0), 0.01, 0.99])
        monkeypatch.setattr(integrators, "_evaluate", counted)
        _, tau, _ = step(model, make_scheme("gbbks1"), y, 1.0)
        assert len(evaluations) == 1
        c, d = y[0], -1e6 * y[0]
        assert tau == evaluations[0] == integrators._last_positive_tau(c, d)
        monkeypatch.setattr(integrators, "_evaluate", evaluate)
        factors = [(ci, di, ci) for ci, di in zip(y.tolist(), model.rhs(y).tolist()) if di < 0.0]
        assert tau == clamped_newton(factors, 1.0)

    def test_clamp_to_a_zero_boundary_raises(self):
        """c = sigma = 2^-1074, d = -(1 - 2^-53): the root lies just above 2^-1074.

        Rescaled, the slope at tau = 0 overflows and tau_max rounds to
        2^-1074, so Newton bisects down to 0.0; unscaled, d*2^-1074 rounds to
        -c and the factor to 0.0.  Its boundary is 0.0, and the floor rule's
        2^-1074 may not replace it.
        """
        tiny, d = math.ulp(0.0), -(1.0 - 2.0**-53)
        assert tiny + d * tiny == 0.0
        assert integrators._newton_root([rescaled(tiny, d, tiny)], 1.0) == 0.0
        with pytest.raises(SolverError):
            solve_tau([tiny], [d], [tiny], 1.0)

    @pytest.mark.parametrize("big", [2.0**1020, 1e308])
    def test_unscaled_subnormal_triple_keeps_its_boundary(self, big):
        """A subnormal c beside sigma >= 2^1020 is not rescaled; its boundary is still exact.

        For c = 4*2^-1074, d = -40*2^-1074 the boundary is 0.0875, far below
        the float quotient c/(-d) = 0.1, so it must come from the exact
        threshold c - 2^-1075 and not from settling c/(-d) by single ulps.
        G(0) underflows (c/sigma is below every float), so tau is 2^-1074.
        """
        tiny = math.ulp(0.0)
        b = integrators._last_positive_tau(4 * tiny, -40 * tiny)
        assert b == pytest.approx(0.0875, rel=1e-15)
        factors = [(4 * tiny, -40 * tiny, big), (1.0, -0.5, 1.0)]
        assert rescaled(*factors[0]) == factors[0]
        assert integrators._newton_tau(factors, 1.0) == clamped_newton(factors, 1.0) == tiny

    @pytest.mark.parametrize(
        "factors",
        [
            [(1e-309, -0.79, 2.54)],
            [(1e-310, -0.79, 2.54)],
            [(1e-320, -0.79, 2.54)],
            [(3e-308, -0.79, 3e-308)],
            [(1e-309, -0.79, 1e-309)],
            [(4.111665503586704e-309, -0.7928602311622163, 2.5351319019689043)],
            [
                (5.078014108784689, -3.646692192958656, 4.895265827995587),
                (4.111665503586704e-309, -0.7928602311622163, 2.5351319019689043),
            ],
        ],
        ids=["1e-309", "1e-310", "1e-320", "sigma=c-normal", "sigma=c-subnormal", "captured", "two-factor"],
    )
    def test_overflowed_slope_is_not_convergence(self, factors):
        """Near these roots d/(c + d*tau) overflows, and the Newton step -G/G' is 0.0.

        Such a step is no convergence, and the loop bisects instead.  tau
        is within 1e-14 relative or 2^-1073 absolute of the 50-digit root
        (a root near 3e-310 has only ~45 significant bits), or it is the
        positivity boundary below the root, where the exact G is still
        positive (the cases with sigma = c, the shape of the bbks1 preset).
        """
        c, d, s = zip(*factors)
        tau = solve_tau(c, d, s, 1.0)
        assert all(ci + di * tau > 0.0 for ci, di in zip(c, d))
        root = oracle.product_term_root(c, d, s, 1.0)
        if abs(tau - root) > max(1e-14 * root, 2.0**-1073):
            up = math.nextafter(tau, math.inf)
            assert not all(ci + di * up > 0.0 for ci, di in zip(c, d))
            assert oracle.exact_g(factors, 1.0, tau) > 0

    def test_positive_tau_or_solver_error_on_subnormal_data(self):
        """The floor rule: ``SolverError`` exactly when some c + d*2^-1074 is not positive.

        Otherwise 2^-1074 keeps every factor positive, and the solve returns
        a positive tau that keeps every float factor c + d*tau positive.
        """
        raised = 0
        for factors in subnormal_tau_inputs():
            c, d, s = zip(*factors)
            if all(ci + di * math.ulp(0.0) > 0.0 for ci, di in zip(c, d)):
                tau = solve_tau(c, d, s, 1.0)
                assert tau > 0.0 and all(ci + di * tau > 0.0 for ci, di in zip(c, d)), factors
            else:
                with pytest.raises(SolverError):
                    solve_tau(c, d, s, 1.0)
                raised += 1
        assert 500 < raised < 1500

    def test_ratio_that_underflows_leaves_a_float_product(self):
        """The first ratio c/sigma, 2e-322/3e11, is 0.0 in floating point; the product is not.

        G's product is formed again with its binary exponent kept apart, so
        the solve lands within 2 * 2^-1074 of the 50-digit root 3.94e-323
        instead of returning 2^-1074.
        """
        factors = [
            (2e-322, -1.7121830767181133e-05, 296441667804.6568),
            (2.0388491752936387e-163, -30814236625.93649, 5.596019488763376e-268),
            (2.3222327925699448e-307, -5889529017611451.0, 6.502549998765734e-307),
        ]
        c, d, s = zip(*factors)
        root = oracle.product_term_root(c, d, s, 1.0)
        assert abs(solve_tau(c, d, s, 1.0) - root) <= 2 * math.ulp(0.0)

    def test_subnormal_draws_whose_running_product_underflowed(self):
        """The draws of ``subnormal_tau_inputs`` that once ended far from their roots.

        Fifteen returned 2^-1074 and draw 864 stopped 2.5e-6 relative below
        its root, none at a positivity boundary.  Each now lands near its
        root, or at the boundary where the root lies above it (draw 864).
        """
        draws = list(subnormal_tau_inputs())
        for index in (24, 531, 864, 1158, 1200, 1626, 1903, 2133, 2143, 2218, 2472, 2490,
                      2501, 2843, 2945, 2990):
            c, d, s = zip(*draws[index])
            tau, root = solve_tau(c, d, s, 1.0), oracle.product_term_root(c, d, s, 1.0)
            up = math.nextafter(tau, math.inf)
            at_boundary = tau < root and not all(ci + di * up > 0.0 for ci, di in zip(c, d))
            assert at_boundary or abs(tau - root) <= max(1e-9 * root, 2 * math.ulp(0.0)), index

    @pytest.mark.parametrize(
        "factors, product",
        [
            ([(1e300, -1.0, 1e-10), (1e-300, -1.0, 1.0)], 1e10),  # overflows on the way
            ([(2.0**-1064, -1.0, 2.0**40), (2.0**50, -1.0, 1.0)], 2.0**-1054),  # a ratio of 0.0
            ([(1e300, -1.0, 1e-10), (1e300, -1.0, 1.0)], math.inf),  # beyond the float range
        ],
        ids=["overflow-to-normal", "underflow-to-subnormal", "overflow"],
    )
    def test_product_out_of_range_is_formed_once(self, factors, product):
        """A product that ends outside [2^-1022, +inf) is the float of the exact product."""
        g = integrators._evaluate(factors, 1.0, 0.0)[0]
        assert g == product or abs(g - product) <= 1e-15 * product + math.ulp(0.0)

    @pytest.mark.parametrize(
        "c, d, s",
        [
            ([1e-300, 1e300], [-1e-300, -1.0], [1e20, 1.0]),
            ([3e-160, 7e-161, 2e300], [-1e-170, -1e-170, -1.0], [1.0, 1.0, 1.0]),
        ],
        ids=["subnormal-ratio", "subnormal-partial-product"],
    )
    def test_product_that_dips_below_the_normal_range_keeps_its_digits(self, c, d, s):
        """A product that passes below 2^-1022 on the way and ends inside the normal range.

        The first ratio is 1e-320, or the ratios are normal and the running
        product passes 2.1e-320.  Formed factor by factor the product lost
        digits, and the solve landed 1.1e-5 and 1.05e-4 relative below the
        50-digit roots 1e-20 and 4.2e-20.
        """
        root = oracle.product_term_root(c, d, s, 1.0)
        assert abs(solve_tau(c, d, s, 1.0) - root) <= 2.0**-52 * root

    @pytest.mark.parametrize("c", [1.0, 1e300, sys.float_info.max])
    def test_subnormal_rate_beside_large_component(self, c):
        """A triple (c, -2^-1074, c) is rescaled only as far as nothing overflows.

        Its factor is c in floating point for every tau up to 1, so tau = 1,
        and next to the one-ulp boundary case it leaves that case's tau alone.
        """
        tiny = math.ulp(0.0)
        assert solve_tau([c], [-tiny], [c], 1.0) == 1.0
        alone = solve_tau([4 * tiny], [-40 * tiny], [4 * tiny], 1.0)
        assert solve_tau([c, 4 * tiny], [-tiny, -40 * tiny], [c, 4 * tiny], 1.0) == alone


class TestSingleSteps:
    def test_geco1_worked_example(self):
        y1, _, aux = step(UNIT_2X2, make_scheme("geco1"), Y21, 1.0)
        npt.assert_allclose(y1, GECO1_STEP, atol=1e-14)
        assert aux["arg"] == 2.0

    def test_geco2_worked_example(self):
        y1, _, aux = step(UNIT_2X2, make_scheme("geco2"), Y21, 1.0)
        npt.assert_allclose(y1, GECO2_STEP, atol=1e-14)
        npt.assert_allclose(aux["arg"], 0.13533528323661269189, rtol=1e-13)
        assert not aux["degenerate"]

    def test_gbbks1_worked_example(self):
        y1, tau, _ = step(UNIT_2X2, make_scheme("gbbks1"), Y21, 1.0)
        npt.assert_allclose(y1, [4.0 / 3.0, 5.0 / 3.0], atol=1e-14)
        assert tau == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_gbbks2_worked_example(self):
        y1, tau, aux = step(UNIT_2X2, make_scheme("gbbks2", 1.0), Y21, 1.0)
        npt.assert_allclose(y1, [8.0 / 5.0, 7.0 / 5.0], atol=1e-14)
        assert tau == pytest.approx(6.0 / 5.0, abs=1e-14)
        assert aux["tau_inner"] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_euler_and_heun_worked_examples(self):
        npt.assert_array_equal(step(UNIT_2X2, make_scheme("euler"), Y21, 1.0)[0], [1.0, 2.0])
        # A + A^2/2 vanishes for this matrix at dt = 1, so Heun returns y
        npt.assert_array_equal(step(UNIT_2X2, make_scheme("heun"), Y21, 1.0)[0], Y21)

    def test_heun_matches_matrix_polynomial(self):
        """Two-stage evaluation equals I + dt*A + (dt*A)^2/2 on linear models."""
        a = two_by_two(0.7, 2.0, 1.3)
        model = LinearPds.from_matrix(a)
        y = np.array([0.8, 2.2])
        for dt in (0.25, 0.5, 1.5):
            want = y + dt * (a @ y) + 0.5 * dt * dt * (a @ (a @ y))
            npt.assert_allclose(step(model, make_scheme("heun"), y, dt)[0], want, rtol=1e-14)

    @pytest.mark.parametrize("name", ["euler", "heun", "geco1", "geco2", "gbbks1", "gbbks2"])
    @pytest.mark.parametrize("model,kernel", [
        (UNIT_2X2, np.array([1.0, 1.0])),
        (MODEL_5X5, np.array([4.0, 2.0, 2.0, 4.0, 1.0])),
    ])
    def test_kernel_states_are_fixed_points(self, name, model, kernel):
        scheme = make_scheme(name)
        for scale in (0.3, 1.0, 2.7):
            v = scale * kernel
            npt.assert_allclose(step(model, scheme, v, 1.0)[0], v, atol=1e-14 * scale)

    def test_gbbks1_empty_set_is_euler_bitwise(self):
        model = production_only_model()
        y = np.array([0.4, 1.7])
        for dt in (0.3, 2.0):
            ours, tau, _ = step(model, make_scheme("gbbks1"), y, dt)
            assert tau == 1.0
            npt.assert_array_equal(ours, step(model, make_scheme("euler"), y, dt)[0])

    def test_gbbks2_empty_sets_match_underlying_two_stage(self):
        model = production_only_model()
        y = np.array([0.4, 1.7])
        for dt in (0.3, 2.0):
            ours = step(model, make_scheme("gbbks2", 1.0), y, dt)[0]
            npt.assert_array_equal(ours, step(model, make_scheme("heun"), y, dt)[0])
        # alpha != 1: compare against the underlying two-stage method directly
        alpha = 0.75
        f1 = model.rhs(y)
        y2 = y + (alpha * 2.0) * f1 * 1.0
        fbar = (1.0 - 1.0 / (2 * alpha)) * f1 + (1.0 / (2 * alpha)) * model.rhs(y2)
        want = y + 2.0 * fbar * 1.0
        got = step(model, make_scheme("gbbks2", alpha), y, 2.0)[0]
        npt.assert_array_equal(got, want)

    def test_geco_on_nonlinear_model(self):
        """Damping argument is dt * sum of rates; here sum d = 2*y2."""
        model = nonlinear_model()
        y = np.array([1.0, 2.0])
        y1 = step(model, make_scheme("geco1"), y, 0.5)[0]
        factor = 0.5 * phi(0.5 * 4.0)
        npt.assert_allclose(y1, y + factor * model.rhs(y), rtol=1e-15)
        npt.assert_allclose(y1, [1.0 + PHI_2, 2.0 - PHI_2], rtol=1e-14)

    def test_geco2_degenerate_boundary_freezes_state(self):
        """w component positive over a zero state entry: step is the identity.

        The destruction rate of the first component vanishes at y but is large
        at the inner stage, so w_1 = -f_1(inner) + f_1(y) > 0 while y_1 = 0;
        the damping argument is +inf and its kernel value 0 freezes the state.
        """
        rate = lambda y: np.array([5.0 * max(y[1] - 1.0, 0.0), 0.0])
        model = GeneralPds(
            dimension=2,
            production=lambda y: np.array([1.0, 1.0]),
            destruction_rate=rate,
        )
        y = np.array([0.0, 1.0])
        y1, _, aux = step(model, make_scheme("geco2"), y, 1.0)
        assert aux["degenerate"]
        assert aux["arg"] == math.inf
        npt.assert_array_equal(y1, y)

    def test_gbbks_boundary_start_lifts_off(self):
        """Zero components with inflow leave the boundary in one step."""
        y0 = np.array([0.0, 3.0, 3.0, 3.0, 4.0])
        for name in ("gbbks1", "gbbks2"):
            assert np.all(step(MODEL_5X5, make_scheme(name), y0, 0.29)[0] > 0.0)

    def test_robertson_boundary_start(self):
        """(1, 0, 0) is outside the positive-data precondition on this nonlinear model.

        geco2 flags a degenerate step and stays at the start; gbbks2's
        product-term solve rejects the zero component in its active set.
        """
        model = robertson_model()
        y0 = np.array([1.0, 0.0, 0.0])
        assert step(model, make_scheme("geco2"), y0, 1e-2)[2]["degenerate"] is True
        traj = integrate(model, make_scheme("geco2"), y0, 1e-2, 10)
        assert traj.states.tolist() == [[1.0, 0.0, 0.0]] * 11
        with pytest.raises(IntegrationError, match=r"^step 1 of gbbks2 failed") as err:
            integrate(model, make_scheme("gbbks2"), y0, 1e-2, 10)
        assert isinstance(err.value.__cause__, ModelError)
        assert "state component in the active set is not positive" in str(err.value.__cause__)

    def test_non_finite_rhs_fails_the_step(self):
        """A production term that overflows surfaces as the model's error, not as a state."""
        model = GeneralPds(
            dimension=2,
            production=lambda y: np.array([math.inf, 0.0]),
            destruction_rate=lambda y: np.zeros(2),
        )
        with pytest.raises(IntegrationError, match=r"^step 1 of euler failed") as err:
            integrate(model, make_scheme("euler"), Y21, 0.1, 3)
        assert isinstance(err.value.__cause__, ModelError)
        assert str(err.value.__cause__) == "right-hand side returned non-finite values"
        assert err.value.trajectory.states.tolist() == [Y21.tolist()]

    @pytest.mark.parametrize("name", ["euler", "gbbks1"])
    @pytest.mark.parametrize("callable_name", ["production", "destruction_rate"])
    def test_rate_output_of_the_wrong_shape_is_a_model_error(self, callable_name, name):
        """A one-entry output on a two-component model fails the step instead of broadcasting."""
        rates = {"production": lambda y: np.zeros(2), "destruction_rate": lambda y: np.ones(2)}
        rates[callable_name] = lambda y: np.array([1.0])
        model = GeneralPds(dimension=2, **rates)
        with pytest.raises(IntegrationError, match=rf"^step 1 of {name} failed") as err:
            integrate(model, make_scheme(name), Y21, 0.1, 3)
        assert type(err.value.__cause__) is ModelError
        assert str(err.value.__cause__) == f"{callable_name} returned shape (1,)"
        assert err.value.trajectory.states.tolist() == [Y21.tolist()]

    @pytest.mark.parametrize("name", ["gbbks1", "gbbks2"])
    def test_overflowed_slope_is_a_non_finite_state(self, name):
        """dt*f_1 = -inf on the active component y_1 = 2e-308: every positive tau leaves it at -inf.

        The step fails before the product-term solve, whose positivity
        boundary of a subnormal c would never settle on an infinite d.
        """
        rate = 1.7e308
        model = GeneralPds(
            dimension=2,
            production=lambda y: np.array([0.0, rate * y[0]]),
            destruction_rate=lambda y: np.array([rate, 0.0]),
        )
        with pytest.raises(NumericsError, match="non-finite state") as info:
            step(model, make_scheme(name), np.array([2e-308, 1.0]), 1.7e308)
        assert type(info.value) is NumericsError

    @pytest.mark.parametrize("name", ["gbbks1", "gbbks2"])
    def test_overflowed_slope_on_the_2x2_fails_at_step_two(self, name):
        """On ``paper-2x2`` from (2, 1) at dt = 1e308, dt*f overflows in the second step."""
        with pytest.raises(IntegrationError, match="step 2 .*non-finite state") as info:
            integrate(UNIT_2X2, make_scheme(name), Y21, 1e308, 5)
        assert type(info.value.__cause__) is NumericsError
        assert len(info.value.trajectory) == 2

    def test_gbbks_rejects_nonpositive_sigma(self):
        bad = GbbksStrategy(
            sigma=lambda y, y2=None: -np.asarray(y),
            r=lambda y: 1.0,
            pi=lambda y: np.asarray(y),
            q=lambda y: 1.0,
        )
        with pytest.raises(ModelError):
            step(UNIT_2X2, SchemeSpec("gbbks1", strategy=bad), Y21, 1.0)

    @pytest.mark.parametrize("shape", [(), (1,), (2, 1)], ids=["scalar", "one-entry", "column"])
    @pytest.mark.parametrize(
        "name, stage, label",
        [
            ("gbbks1", "sigma", "gbbks1"),
            ("gbbks2", "pi", "gbbks2 inner"),
            ("gbbks2", "sigma", "gbbks2"),
        ],
    )
    def test_strategy_output_of_the_wrong_shape_is_a_model_error(self, shape, name, stage, label):
        """sigma or pi of any shape but (N,) fails the step; ``integrate`` keeps the trajectory."""
        preset = make_scheme(name).strategy
        wrong = lambda *args: np.full(shape, 1.5)
        strategy = dataclasses.replace(preset, **{stage: wrong})
        scheme = SchemeSpec(name, alpha=1.0 if name == "gbbks2" else None, strategy=strategy)
        with pytest.raises(IntegrationError, match=rf"^step 1 of {name} failed") as err:
            integrate(UNIT_2X2, scheme, Y21, 1.0, 3)
        assert type(err.value.__cause__) is ModelError
        assert str(err.value.__cause__) == f"{label}: strategy returned sigma of shape {shape}"
        assert err.value.trajectory.states.tolist() == [Y21.tolist()]

    @pytest.mark.parametrize(
        "y, slope, sigma, r, error, message",
        [
            ([0.0, 1.0, 1.0], [-1.0, -1.0, -math.inf], [1.0, -1.0, 1.0], 0.0, ModelError,
             "x: strategy returned nonpositive sigma on the active set"),
            ([0.0, 1.0, 1.0], [-1.0, -1.0, -math.inf], [1.0, 1.0, 1.0], 0.0, ModelError,
             "x: state component in the active set is not positive"),
            ([1.0, 1.0, 1.0], [-1.0, -1.0, -math.inf], [1.0, 1.0, 1.0], 0.0, ModelError,
             "x: strategy exponent must be positive and finite"),
            ([1.0, 1.0, 1.0], [-1.0, -1.0, -math.inf], [1.0, 1.0, 1.0], math.inf, ModelError,
             "x: strategy exponent must be positive and finite"),
            ([1.0, 1.0, 1.0], [-1.0, -1.0, -math.inf], [1.0, 1.0, 1.0], 1.0, NumericsError,
             "scheme produced a non-finite state"),
            ([0.0, 1.0, 1.0], [-1.0, 1.0, 1.0], "y", 1.0, ModelError,
             "x: strategy returned nonpositive sigma on the active set"),
        ],
        ids=["sigma-first", "then-state", "then-exponent", "then-infinite-exponent",
             "then-overflowed-slope", "sigma-is-y"],
    )
    def test_active_set_faults_are_reported_in_order(self, y, slope, sigma, r, error, message):
        """Sigma, then state, then exponent, then an overflowed slope: the first fault names the error."""
        y = np.array(y)
        sigma = y if sigma == "y" else np.array(sigma)
        with pytest.raises(error) as info:
            integrators._stage(y.tolist(), slope, sigma.tolist(), r, "x")
        assert str(info.value) == message

    def test_faults_off_the_active_set_are_ignored(self):
        """A zero state and a nan or inf sigma where the slope is not negative do not fail the solve."""
        y = np.array([0.0, 2.0, 1.0])
        tau = integrators._stage(y.tolist(), [0.5, -1.0, 0.0], [math.nan, 2.0, math.inf], 1.0, "x")[2]
        assert tau == solve_tau([2.0], [-1.0], [2.0], 1.0)
        # with no active set the exponent is not consulted either: tau is the empty product
        nxt, _, tau = integrators._stage(y.tolist(), [0.5, 0.0, 1.0], [math.nan, 2.0, math.inf], 0.0, "x")
        assert tau == 1.0 and nxt.tolist() == [0.5, 2.0, 2.0]


def numpy_active_solve(y, slope, sigma, r):
    """The product-term solve as the kernels once formed it, from numpy arrays."""
    rows = zip(y.tolist(), slope.tolist(), np.asarray(sigma, dtype=float).tolist())
    factors = [(c, d, s) for c, d, s in rows if d < 0.0]
    if not factors:
        return 1.0
    if not all(0.0 < s < math.inf for _, _, s in factors) or min(factors)[0] <= 0.0:
        raise ModelError("outside the solver's preconditions")
    return integrators._newton_tau(factors, r)


def numpy_geco2(model, y, dt, spec):
    """``geco2_step`` in whole-array numpy operations, each association as the kernel's."""
    inner_arg = dt * model.rhs_and_rate_sum(y)[1]
    inner_phi = phi(inner_arg)
    f1 = model.rhs(y)
    y2 = y + (dt * inner_phi) * f1
    f2 = model.rhs(y2)
    w = 2.0 * inner_phi * f1 - f1 - f2
    w_plus = np.maximum(w, 0.0)
    active = w_plus > 0.0
    degenerate = bool((active & (y == 0.0)).any())
    arg = math.inf if degenerate else dt * float(np.sum(w_plus[active] / y[active]))
    nxt = y + 0.5 * dt * phi(arg) * (f1 + f2)
    return nxt, 1.0, {"arg": arg, "inner_arg": inner_arg, "degenerate": degenerate}


def numpy_gbbks1(model, y, dt, spec):
    f = model.rhs(y)
    tau = numpy_active_solve(y, dt * f, spec.strategy.sigma(y, None), spec.strategy.r(y))
    return y + dt * f * tau, tau, {}


def numpy_gbbks2(model, y, dt, spec):
    alpha, strategy = spec.alpha, spec.strategy
    f1 = model.rhs(y)
    tau_inner = numpy_active_solve(y, (alpha * dt) * f1, strategy.pi(y), strategy.q(y))
    y2 = y + (alpha * dt) * f1 * tau_inner
    f2 = model.rhs(y2)
    fbar = (1.0 - 1.0 / (2.0 * alpha)) * f1 + (1.0 / (2.0 * alpha)) * f2
    tau = numpy_active_solve(y, dt * fbar, strategy.sigma(y, y2), strategy.r(y))
    return y + dt * fbar * tau, tau, {"tau_inner": tau_inner}


def kernel_bits(out):
    """(y_next, tau, aux) with every float as its bytes."""
    y_next, tau, aux = out
    assert type(y_next) is np.ndarray and y_next.dtype == np.float64
    floats = {k: v if type(v) is bool else float(v).hex() for k, v in aux.items()}
    return y_next.shape, y_next.tobytes(), float(tau).hex(), floats


def oracle_kernel_cases():
    """(model, y, dt) on random systems, geco2's degenerate case and ``paper-stiff?K=1e+06``.

    The random starts are of order one, spread over 300 decades, or of
    order one with a 0.0 and a 2^-1074 component; the stiff states are
    those of gbbks runs at dt 1e12, whose first component stalls at 2^-1074.
    """
    for n in (3, 5, 8, 16):
        model = stability.random_conservative_system(n, n)
        rng = np.random.default_rng(n)
        positive = rng.uniform(0.1, 3.0, n)
        spread = 10.0 ** rng.uniform(-300.0, 0.0, n)
        edge = positive.copy()
        edge[0], edge[n // 2] = 0.0, math.ulp(0.0)
        for dt in (1e-3, 0.3, 5.0, 1e6):
            for y in (positive, spread, edge):
                yield model, y, dt
    frozen = GeneralPds(
        dimension=2,
        production=lambda y: np.array([1.0, 1.0]),
        destruction_rate=lambda y: np.array([5.0 * max(y[1] - 1.0, 0.0), 0.0]),
    )
    yield frozen, np.array([0.0, 1.0]), 1.0
    stiff = PAPER_STIFF.build()
    for name in ("gbbks1", "gbbks2"):
        states = integrate(stiff, make_scheme(name), PAPER_STIFF.y0, 1e12, 40).states
        for y in states[::4]:
            yield stiff, y, 1e12


def bound_kernel(name):
    """Scheme ``name`` as (model, y, dt, spec) -> (next state, tau, aux), one bound run per (model, dt, spec).

    A run is bound on its first call and stepped on every later call with
    the same model, dt and spec, so its lift cache carries over between
    states.  The float list ``advance`` returns must have the next state's bits.
    """
    runs = {}

    def kernel(model, y, dt, spec):
        key = (id(model), dt, id(spec))
        if key not in runs:
            runs[key] = integrators.SCHEMES[name].bind(model, dt, spec)
        y_next, ys_next, tau, aux = runs[key](y, y.tolist())
        assert np.array(ys_next).tobytes() == y_next.tobytes()
        return y_next, tau, aux

    return kernel


def test_kernels_match_the_numpy_formulation_bitwise():
    """The list-based geco2, gbbks1 and gbbks2 kernels give the bits of whole-array numpy.

    Both sides run the same ``_newton_tau``; what is compared is the
    elementwise arithmetic around it, including numpy's blocked sum of
    geco2's ratios (from 8 entries on), a zero and a subnormal component,
    the degenerate flag and three gbbks2 alphas.  Each kernel is reached
    through its ``*_step`` function and through ``Scheme.bind``.
    """
    schemes = [
        ("geco2", make_scheme("geco2"), numpy_geco2),
        ("gbbks1", make_scheme("gbbks1"), numpy_gbbks1),
    ] + [("gbbks2", make_scheme("gbbks2", a), numpy_gbbks2) for a in (0.5, 1.0, 3.0)]
    kernels = {name: (getattr(integrators, f"{name}_step"), bound_kernel(name)) for name, _, _ in schemes}
    compared = degenerate = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for model, y, dt in oracle_kernel_cases():
            for name, scheme, oracle_kernel in schemes:
                for kernel in kernels[name]:
                    try:
                        want = kernel_bits(oracle_kernel(model, y, dt, scheme))
                    except (ModelError, NumericsError) as exc:
                        with pytest.raises(type(exc)):
                            kernel(model, y, dt, scheme)
                        continue
                    assert kernel_bits(kernel(model, y, dt, scheme)) == want, (name, y, dt)
                    compared += 1
                    degenerate += want[3].get("degenerate", False)
    assert compared >= 2 * 300 and degenerate > 0


def test_linear_rhs_has_the_bits_of_matmul():
    """``LinearPds.rhs`` is ``a.dot(y)``: the bits of ``a @ y`` on C- and F-ordered matrices.

    Both call the same BLAS gemv.  The states spread over 600 decades and
    hold a 0.0 and a subnormal entry; the matrices are the conservative
    Metzler draws of ``random_conservative_system``.
    """
    rng = np.random.default_rng(20)
    compared = 0
    for n in (2, 3, 5, 8, 16, 64):
        a = stability.random_conservative_system(n, n).a
        for order in ("C", "F"):
            model = LinearPds.from_matrix(np.asarray(a, order=order))
            assert model.a.flags[f"{order}_CONTIGUOUS"]
            for _ in range(50):
                y = 10.0 ** rng.uniform(-300.0, 300.0, n)
                y[rng.integers(n)] = 0.0
                y[rng.integers(n)] = math.ulp(0.0)
                assert model.rhs(y).tobytes() == (model.a @ y).tobytes(), (n, order, y)
                compared += 1
    assert compared == 600


def test_alpha_one_sigma_has_the_bits_of_the_power_formula():
    """``bbks2(1.0).sigma(y, y2)`` is y2: the bits of y^0 * y2^1, also on 0, subnormal and inf entries."""
    sigma = GbbksStrategy.bbks2(1.0).sigma
    rng = np.random.default_rng(21)
    special = [0.0, math.ulp(0.0), 3 * math.ulp(0.0), 2.0**-1022, math.inf, sys.float_info.max]
    for _ in range(200):
        y = np.concatenate([10.0 ** rng.uniform(-320.0, 308.0, 6), rng.permutation(special)])
        y2 = np.concatenate([10.0 ** rng.uniform(-320.0, 308.0, 6), rng.permutation(special)])
        with np.errstate(divide="ignore", over="ignore"):
            want = np.power(y, 0.0) * np.power(y2, 1.0)
        assert sigma(y, y2).tobytes() == want.tobytes()
    # other alphas keep the power formula
    y, y2 = np.array([0.5, 2.0]), np.array([3.0, 0.25])
    got = GbbksStrategy.bbks2(3.0).sigma(y, y2)
    assert got.tobytes() == (np.power(y, 1.0 - 1.0 / 3.0) * np.power(y2, 1.0 / 3.0)).tobytes()


def test_ratio_sum_has_the_bits_of_numpy_sum():
    """geco2's ratio sum is numpy's add-reduce: left to right below 8 terms, numpy's own from 8 on."""
    rng = np.random.default_rng(22)
    for n in range(21):
        for _ in range(500):
            ratios = (10.0 ** rng.uniform(-20.0, 20.0, n)).tolist()
            want = float(np.sum(np.array(ratios)))
            assert integrators._add_reduce(ratios).hex() == want.hex(), ratios


def compensated_sum(values, start=0.0):
    """Neumaier's compensated sum, the algorithm of ``sum`` over floats from Python 3.12 on."""
    total, carry = float(start), 0.0
    for value in values:
        nxt = total + value
        carry += (total - nxt) + value if abs(total) >= abs(value) else (value - nxt) + total
        total = nxt
    return total + carry


def test_ratio_sum_does_not_depend_on_the_builtin_sum(monkeypatch):
    """With ``sum`` compensated, as on Python 3.12+, the short sums keep numpy's left-to-right bits."""
    assert compensated_sum([1.0, 1e-16, 1e-16]) != 1.0
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert integrators._add_reduce([1.0, 1e-16, 1e-16]) == float(np.sum([1.0, 1e-16, 1e-16])) == 1.0
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        for _ in range(500):
            ratios = (10.0 ** rng.uniform(-20.0, 20.0, n)).tolist()
            want = float(np.sum(np.array(ratios)))
            assert integrators._add_reduce(ratios).hex() == want.hex(), ratios


@pytest.mark.parametrize("name, stages", [("geco1", 1), ("geco2", 2)])
def test_geco_evaluates_the_rates_once_per_stage(name, stages):
    """A nonlinear model's ``destruction_rate`` runs once per stage: the rate sum comes with f(y)."""
    calls = []
    model = nonlinear_model()
    rates = model.destruction_rate

    def counted(y):
        calls.append(1)
        return rates(y)

    model = dataclasses.replace(model, destruction_rate=counted)
    y = np.array([0.3, 1.7])
    for _ in range(10):
        y = step(model, make_scheme(name), y, 0.5)[0]
    assert len(calls) == 10 * stages


def test_overflowed_power_in_integrate_is_no_raw_overflow_error():
    """sigma = y*1e-200 with r = 2 puts G(0) beyond the float range; the run completes and stays positive."""
    strategy = GbbksStrategy(
        sigma=lambda y, y2=None: y * 1e-200, r=lambda y: 2.0, pi=lambda y: y, q=lambda y: 1.0
    )
    model = UNIT_2X2
    for spec in (SchemeSpec("gbbks1", strategy=strategy), SchemeSpec("gbbks2", alpha=1.0, strategy=strategy)):
        for dt in (0.1, 1.0, 10.0):
            traj = integrate(model, spec, Y21, dt, 50)
            assert (traj.min_component > 0.0).all()
            assert traj.invariant_defect[-1] <= 1e-15


@pytest.mark.parametrize("address, dt", [("builtin:paper-5x5", 0.1), ("builtin:paper-stiff?K=1000", 1.0)])
@pytest.mark.parametrize("name, alpha", [("gbbks1", None), ("gbbks2", 1.0), ("gbbks2", 3.0)])
def test_strategy_defaults_step_the_bits_of_explicit_classic_callables(address, dt, name, alpha):
    """A strategy given only sigma runs 200 steps with the bits of r = q = 1 and pi = y given explicitly."""
    doc = posinv.load_model(address)
    model = doc.build()
    sigma = make_scheme(name, alpha).strategy.sigma
    explicit = GbbksStrategy(sigma=sigma, r=lambda y: 1.0, pi=lambda y: y, q=lambda y: 1.0)
    runs = [
        integrate(model, SchemeSpec(name, alpha=alpha, strategy=strategy), doc.y0, dt, 200)
        for strategy in (GbbksStrategy(sigma=sigma), explicit)
    ]
    for field in ("states", "invariant_defect", "min_component"):
        assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()


def test_default_pi_is_the_state_itself():
    """``pi(y) is y``, so gbbks2's inner stage reuses ``y.tolist()`` as its sigma."""
    y = np.array([1.0, 2.0])
    assert GbbksStrategy.bbks1().pi(y) is y
    assert GbbksStrategy.bbks2(3.0).pi(y) is y
    assert GbbksStrategy.bbks1().r(y) == GbbksStrategy.bbks1().q(y) == 1.0


class TestSchemeSpec:
    def test_alpha_constraint(self):
        with pytest.raises(ValueError):
            make_scheme("gbbks2", alpha=0.4)
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite alpha"):
                make_scheme("gbbks2", alpha=alpha)
            with pytest.raises(ValueError, match="finite alpha"):
                SchemeSpec("gbbks2", alpha=alpha, strategy=GbbksStrategy.bbks2(1.0))
        assert make_scheme("gbbks2", alpha=0.5).alpha == 0.5
        assert make_scheme("gbbks2").alpha == 1.0

    @pytest.mark.parametrize("alpha", [0.0, math.inf, math.nan, 0.3])
    def test_bbks2_preset_checks_its_alpha(self, alpha):
        with pytest.raises(ValueError, match=r"^gbbks2 requires a finite alpha >= 1/2$"):
            GbbksStrategy.bbks2(alpha)

    def test_alpha_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            make_scheme("geco1", alpha=1.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            SchemeSpec("rk4")

    def test_gbbks_requires_strategy(self):
        with pytest.raises(ValueError):
            SchemeSpec("gbbks1")


def per_state_diagnostics(model, traj):
    """Invariant defects and minima of ``traj``, evaluated one state at a time."""
    rows = model.invariant_rows
    ref = rows @ traj.states[0]
    scale = float(np.max(np.abs(ref)))
    defects = [float(np.max(np.abs(rows @ y - ref))) / scale for y in traj.states]
    return defects, [float(np.min(y)) for y in traj.states]


class TestIntegrate:
    def test_zero_steps(self):
        traj = integrate(UNIT_2X2, make_scheme("geco1"), Y21, 1.0, 0)
        assert len(traj) == 1
        npt.assert_array_equal(traj.states[0], Y21)

    def test_times_by_multiplication(self):
        dt = 0.1
        traj = integrate(UNIT_2X2, make_scheme("euler"), Y21, dt, 5)
        assert traj.times.tolist() == [k * dt for k in range(6)]

    def test_invariant_defect_and_positivity_recorded(self):
        traj = integrate(MODEL_5X5, make_scheme("geco1"), np.array([0.0, 3, 3, 3, 4.0]), 1.0, 50)
        assert max(traj.invariant_defect) <= 1e-12
        assert min(traj.min_component) >= 0.0
        assert all(np.min(s) > 0 for s in traj.states[1:])

    @pytest.mark.parametrize("name", ["geco1", "geco2", "gbbks1", "gbbks2"])
    @pytest.mark.parametrize("dt", [0.1, 10.0])
    def test_positivity_and_conservation_sweep(self, name, dt):
        for address in ("builtin:paper-2x2", "builtin:paper-stiff?K=10"):
            doc = posinv.load_model(address)
            traj = integrate(doc.build(), make_scheme(name), doc.y0, dt, 20)
            assert max(traj.invariant_defect) <= 1e-12
            assert min(traj.min_component) > 0.0

    def test_failure_carries_partial_trajectory(self):
        bad = GbbksStrategy(
            sigma=lambda y, y2=None: np.zeros_like(np.asarray(y)),
            r=lambda y: 1.0,
            pi=lambda y: np.asarray(y),
            q=lambda y: 1.0,
        )
        scheme = SchemeSpec("gbbks1", strategy=bad)
        with pytest.raises(IntegrationError) as err:
            integrate(UNIT_2X2, scheme, Y21, 1.0, 5)
        assert len(err.value.trajectory) == 1
        assert isinstance(err.value.__cause__, ModelError)

    @pytest.mark.parametrize("name", SCHEME_IDS)
    def test_diagnostics_match_per_state_evaluation(self, name):
        """Defects and minima computed after the loop equal the per-state values, bit for bit."""
        y0 = np.array([0.0, 3, 3, 3, 4.0])
        traj = integrate(MODEL_5X5, make_scheme(name), y0, 0.2, 300)
        diagnostics = (traj.invariant_defect.tolist(), traj.min_component.tolist())
        assert diagnostics == per_state_diagnostics(MODEL_5X5, traj)

    def test_mid_run_non_finite_state(self):
        """Euler at dt = 1e305 overflows at its second step; the first state is kept."""
        doc = posinv.load_model("builtin:paper-2x2")
        with pytest.raises(IntegrationError, match=r"^step 2 of euler failed") as err:
            integrate(doc.build(), make_scheme("euler"), doc.y0, 1e305, 5)
        assert isinstance(err.value.__cause__, NumericsError)
        assert len(err.value.trajectory) == 2

    def test_mid_run_failure_keeps_diagnostics(self):
        """A strategy whose sigma turns to zeros at its 29th call stops gbbks2 at step 29."""
        doc = posinv.load_model("builtin:paper-stiff?K=1000")
        model = doc.build()
        preset = GbbksStrategy.bbks2(1.0)
        calls = itertools.count(1)

        def sigma(y, y2):
            out = preset.sigma(y, y2)
            return out if next(calls) < 29 else np.zeros_like(out)

        scheme = SchemeSpec("gbbks2", alpha=1.0, strategy=dataclasses.replace(preset, sigma=sigma))
        with pytest.raises(IntegrationError, match=r"^step 29 of gbbks2 failed") as err:
            integrate(model, scheme, doc.y0, 1e3, 500)
        traj = err.value.trajectory
        assert isinstance(err.value.__cause__, ModelError)
        assert len(traj.states) == len(traj.invariant_defect) == len(traj.min_component) == 29
        diagnostics = (traj.invariant_defect.tolist(), traj.min_component.tolist())
        assert diagnostics == per_state_diagnostics(model, traj)

    @pytest.mark.parametrize("name", ["gbbks1", "gbbks2"])
    @pytest.mark.parametrize("k", ["1000", "1e+06"])
    @pytest.mark.parametrize("dt", [1e-2, 1.0, 1e3, 1e12])
    def test_stiff_runs_stay_strictly_positive(self, name, k, dt):
        """Every component of every state is > 0.0 in floating point, for 1000 steps."""
        doc = posinv.load_model(f"builtin:paper-stiff?K={k}")
        traj = integrate(doc.build(), make_scheme(name), doc.y0, dt, 1000)
        assert len(traj) == 1001
        assert (np.array(traj.states) > 0.0).all()
        assert max(traj.invariant_defect) <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate(UNIT_2X2, make_scheme("euler"), Y21, 1.0, -1)
        with pytest.raises(TypeError):
            integrate(UNIT_2X2, make_scheme("euler"), Y21, 1.0, 2.5)
        bad = (([np.nan, 1.0], 1.0), (Y21, 0.0), (Y21, -1.0), (Y21, np.inf))
        # zero steps check y0 and dt too, rather than return a trajectory of them
        for (y0, dt), n_steps in itertools.product(bad, (0, 3)):
            with pytest.raises(IntegrationError, match="^step 1 of euler failed") as err:
                integrate(UNIT_2X2, make_scheme("euler"), y0, dt, n_steps)
            assert isinstance(err.value.__cause__, ValueError)
            assert len(err.value.trajectory) == 1
        with pytest.raises(ValueError):
            step(UNIT_2X2, make_scheme("euler"), Y21, 0.0)

    def test_start_of_the_wrong_length_is_a_value_error(self):
        """A 4-vector start on a 5-component model fails before any row is stored."""
        model = PAPER_5X5.build()
        message = r"^state shape \(4,\) does not match model dimension 5$"
        with pytest.raises(ValueError, match=message):
            integrate(model, make_scheme("euler"), np.ones(4), 0.1, 2)
        with pytest.raises(ValueError, match=message):
            step(model, make_scheme("gbbks1"), np.ones(4), 0.1)

    def test_infinite_strategy_exponent_fails_the_step(self):
        """r = inf would make every stage return y, a fixed point that is not steady."""
        strategy = dataclasses.replace(GbbksStrategy.bbks1(), r=lambda y: math.inf)
        with pytest.raises(IntegrationError, match="^step 1 of gbbks1 failed") as err:
            integrate(PAPER_5X5.build(), SchemeSpec("gbbks1", strategy=strategy),
                      np.arange(1.0, 6.0), 0.1, 10)
        assert type(err.value.__cause__) is ModelError
        assert str(err.value.__cause__) == "gbbks1: strategy exponent must be positive and finite"

    def test_nonlinear_model_conserves_mass(self):
        model = nonlinear_model()
        traj = integrate(model, make_scheme("geco2"), np.array([1.0, 2.0]), 0.5, 40)
        assert max(traj.invariant_defect) <= 1e-12
        assert min(traj.min_component) > 0.0


def stepped_states(model, scheme, y0, dt, n_steps):
    """The states of ``n_steps`` calls of the public, checked ``step``."""
    states = [np.asarray(y0, dtype=float)]
    for _ in range(n_steps):
        states.append(step(model, scheme, states[-1], dt)[0])
    return np.array(states)


PAPER_5X5 = posinv.load_model("builtin:paper-5x5")
PAPER_STIFF = posinv.load_model("builtin:paper-stiff?K=1e+06")
RANDOM_16 = stability.random_conservative_system(0, 16)
# below both baselines' critical steps; euler ends in a period-2 float cycle there
RANDOM_16_DT = 0.5 * min(
    stability.critical_step(RANDOM_16, make_scheme(b)).dt_star for b in ("euler", "heun")
)
IDENTITY_CASES = (
    [(PAPER_5X5.build(), name, PAPER_5X5.y0, 0.1) for name in SCHEME_IDS]
    + [(nonlinear_model(), name, np.array([1.0, 2.0]), 0.5) for name in SCHEME_IDS]
    + [(PAPER_STIFF.build(), name, PAPER_STIFF.y0, 1e12) for name in ("gbbks1", "gbbks2")]
    + [(RANDOM_16, name, np.ones(16), RANDOM_16_DT) for name in SCHEME_IDS]
)


@pytest.mark.parametrize(
    "model,name,y0,dt",
    IDENTITY_CASES,
    ids=[f"{type(c[0]).__name__}-{c[1]}-dt{c[3]:g}" for c in IDENTITY_CASES],
)
def test_integrate_matches_checked_steps_bitwise(model, name, y0, dt):
    """``integrate`` gives the bits of iterating ``step``, past any fixed point.

    400 steps take every ``paper-5x5`` run past its floating-point fixed
    point (reached by step 230), where ``integrate`` stops calling the kernel.
    """
    scheme = make_scheme(name)
    traj = integrate(model, scheme, y0, dt, 400)
    stepped = stepped_states(model, scheme, y0, dt, 400)
    assert traj.states.shape == stepped.shape
    assert traj.states.tobytes() == stepped.tobytes()


@pytest.mark.parametrize("name", ["gbbks1", "gbbks2"])
def test_bound_runs_stepped_in_turn_keep_their_own_bits(name):
    """Two runs bound on ``paper-stiff``, K = 1e6 at dt 1 and K = 1e3 at dt 1e12, advanced in turn.

    Each holds its own lift cache, and their subnormal triples differ, so
    stepping them alternately gives each the states of its own ``integrate``.
    """
    cases = [(PAPER_STIFF, 1.0), (posinv.load_model("builtin:paper-stiff?K=1000"), 1e12)]
    scheme, runs = make_scheme(name), []
    for doc, dt in cases:
        y = np.asarray(doc.y0, dtype=float)
        runs.append([integrators.SCHEMES[name].bind(doc.build(), dt, scheme), y, y.tolist(), [y]])
    for _ in range(300):
        for run in runs:
            run[1], run[2], _, _ = run[0](run[1], run[2])
            run[3].append(run[1])
    for (doc, dt), run in zip(cases, runs):
        traj = integrate(doc.build(), scheme, doc.y0, dt, 300)
        assert np.array(run[3]).tobytes() == traj.states.tobytes()
        assert traj.min_component[-1] == math.ulp(0.0)  # the run meets subnormal triples


def count_advance_calls(monkeypatch, name, bind):
    """Install ``bind`` as scheme ``name``'s binder; return the list of states its step maps are called on."""
    calls = []

    def counted_bind(model, dt, spec):
        advance = bind(model, dt, spec)

        def counted(y, ys):
            calls.append(y)
            return advance(y, ys)

        return counted

    entry = dataclasses.replace(integrators.SCHEMES[name], bind=counted_bind)
    monkeypatch.setitem(integrators.SCHEMES, name, entry)
    return calls


def test_integrate_stops_calling_the_kernel_at_a_fixed_point(monkeypatch):
    """gbbks2 on ``paper-5x5`` at dt 0.1: state 111 maps to itself bit for bit.

    The 112th call returns its input, so the other 1888 states are copies.
    """
    calls = count_advance_calls(monkeypatch, "gbbks2", integrators.SCHEMES["gbbks2"].bind)
    traj = integrate(PAPER_5X5.build(), make_scheme("gbbks2"), PAPER_5X5.y0, 0.1, 2000)
    assert len(calls) == 112
    assert len(traj) == 2001
    assert traj.states[111].tobytes() == traj.states[112].tobytes() == traj.final.tobytes()
    assert traj.states[110].tobytes() != traj.states[111].tobytes()


def test_signed_zero_flip_is_not_a_fixed_point(monkeypatch):
    """A step that turns +0.0 into -0.0 is equal under ``==`` but not bitwise: no fixed point.

    The flip is its own inverse, so the second call returns the start's
    bytes: the 2-cycle exit, not the fixed-point exit, fills the other four.
    """

    def flip(model, dt, spec):
        def advance(y, ys):
            return np.array([y[0], -y[1]]), [ys[0], -ys[1]], 1.0, {}

        return advance

    calls = count_advance_calls(monkeypatch, "euler", flip)
    traj = integrate(UNIT_2X2, make_scheme("euler"), np.array([1.0, 0.0]), 0.1, 6)
    assert len(calls) == 2
    assert (traj.states == [[1.0, 0.0]] * 7).all()
    assert [math.copysign(1.0, v) for v in traj.states[:, 1]] == [1.0, -1.0] * 3 + [1.0]


def test_integrate_stops_calling_the_kernel_in_a_two_cycle(monkeypatch):
    """euler on ``random:16`` seed 0 below its critical step: state 45 has the bytes of state 43.

    The 45th call closes the floating-point 2-cycle, so the other 955
    states alternate states 44 and 45 without a kernel call.
    """
    calls = count_advance_calls(monkeypatch, "euler", integrators.SCHEMES["euler"].bind)
    traj = integrate(RANDOM_16, make_scheme("euler"), np.ones(16), RANDOM_16_DT, 1000)
    assert len(calls) == 45
    assert len(traj) == 1001
    assert traj.states[43].tobytes() == traj.states[45].tobytes() != traj.states[44].tobytes()
    assert traj.states[42].tobytes() != traj.states[44].tobytes()
    assert traj.states[44::2].tobytes() == np.tile(traj.states[44], (479, 1)).tobytes()
    assert traj.states[45::2].tobytes() == np.tile(traj.states[45], (478, 1)).tobytes()


@pytest.mark.parametrize(
    "model,name,y0,dt,n_steps",
    [
        (PAPER_5X5.build(), "gbbks2", PAPER_5X5.y0, 0.1, 112),  # the fixed point
        (RANDOM_16, "euler", np.ones(16), RANDOM_16_DT, 45),  # the 2-cycle
    ],
    ids=["fixed-point", "two-cycle"],
)
def test_repeat_at_the_last_step_fills_nothing(monkeypatch, model, name, y0, dt, n_steps):
    """The runs above, cut at the step that finds the repeat: every state comes from a call."""
    longer = integrate(model, make_scheme(name), y0, dt, 2 * n_steps)
    calls = count_advance_calls(monkeypatch, name, integrators.SCHEMES[name].bind)
    traj = integrate(model, make_scheme(name), y0, dt, n_steps)
    assert len(calls) == n_steps
    assert traj.states.tobytes() == longer.states[: n_steps + 1].tobytes()


def test_failure_keeps_exactly_the_rows_filled_so_far():
    """Euler at dt = 1e305 fails at step 2: the error holds states 0 and 1, in an array of its own."""
    doc = posinv.load_model("builtin:paper-2x2")
    model, scheme = doc.build(), make_scheme("euler")
    with pytest.raises(IntegrationError) as err:
        integrate(model, scheme, doc.y0, 1e305, 1000)
    states = err.value.trajectory.states
    assert states.tobytes() == stepped_states(model, scheme, doc.y0, 1e305, 1).tobytes()
    assert states.flags.owndata


def test_gbbks2_settles_at_a_spurious_fixed_point_above_dt_star():
    """gbbks2 on ``paper-5x5`` at 1.2*dt* stops at a state that is not steady.

    From (1, 2, 3, 4, 5) state 93 maps to itself bit for bit.  There
    dt*tau_inner*lambda = -2 for lambda = -(5 + sqrt(3)), the eigenvalue that
    sets dt*: the inner stage's slope is then -f(y), so the averaged slope
    (alpha = 1) vanishes and the step returns its input.
    """
    scheme = make_scheme("gbbks2")
    dt = 1.2 * stability.critical_step(MODEL_5X5, scheme).dt_star
    y = integrate(MODEL_5X5, scheme, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), dt, 300).states[93]
    assert np.max(np.abs(MODEL_5X5.a @ y)) > 0.5
    y_next, _, aux = step(MODEL_5X5, scheme, y, dt)
    assert y_next.tobytes() == y.tobytes()
    assert dt * aux["tau_inner"] * -(5.0 + math.sqrt(3.0)) == pytest.approx(-2.0, abs=1e-12)


def test_gbbks2_far_above_dt_star_runs_until_no_positive_tau_is_left():
    """gbbks2 on ``paper-5x5`` above dt*: a subnormal root is solved, a root below 2^-1074 fails.

    From the builtin y0 at dt = 1.5 every step completes, though components
    reach the subnormal range.  From (1, 2, 3, 4, 5) at 10*dt* a component
    reaches 3e-323 at step 881, where c + d*2^-1074 is not positive: the
    run ends with the ``SolverError`` that names that factor; its bracket
    is not empty, although c/(-d) underflows there.
    """
    scheme = make_scheme("gbbks2")
    traj = integrate(MODEL_5X5, scheme, PAPER_5X5.y0, 1.5, 3000)
    assert np.min(traj.min_component[1:]) > 0.0
    dt = 10.0 * stability.critical_step(MODEL_5X5, scheme).dt_star
    with pytest.raises(IntegrationError, match=r"^step 881 .* at c = 3e-323, d = ") as info:
        integrate(MODEL_5X5, scheme, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), dt, 3000)
    assert type(info.value.__cause__) is SolverError
    assert info.value.__cause__.bracket[1] > 0.0


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(integrators.__file__).resolve().parent.parent)


def load_script(name, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the scripts import one another by name
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["_evaluate", "_newton_root"])
def test_solve_replay_needs_the_functions_it_counts(name, monkeypatch):
    """Without ``_evaluate`` or ``_newton_root`` the replay would count zero calls; it exits instead."""
    ab_timing = load_script("ab_timing", monkeypatch)
    monkeypatch.delattr(integrators, name)
    with pytest.raises(SystemExit, match=f"has no function {name};"):
        ab_timing.replay(integrators, {})


def test_solve_recorder_records_one_call_per_stage_with_an_active_set(monkeypatch):
    """A short stiff gbbks2 run: one recorded solve per stage with a negative slope, in stage order.

    The recorder passes the run's lift cache through, and each recorded
    (factors, r), solved again without it, gives the tau of its stage.
    """
    ab_timing = load_script("ab_timing", monkeypatch)
    active_taus, stages = [], []
    stage = integrators._stage

    def counted(ys, slope, *rest):
        out = stage(ys, slope, *rest)
        stages.append(1)
        if any(s < 0.0 for s in slope):
            active_taus.append(out[2])
        return out

    monkeypatch.setattr(integrators, "_stage", counted)
    with ab_timing.recorded(integrators) as calls:
        integrate(PAPER_STIFF.build(), make_scheme("gbbks2"), PAPER_STIFF.y0, 1.0, 30)
    assert integrators._newton_tau.__name__ == "_newton_tau"  # the recorder is gone
    assert len(stages) == 60 and len(calls) == len(active_taus) > 30
    assert [integrators._newton_tau([tuple(t) for t in f], r) for f, r in calls] == active_taus


def test_ab_timing_on_one_tree_reads_no_difference(tmp_path):
    """An A/A run of ``scripts/ab_timing.py``: no operation or solve differs, and the ratio is near 1.

    One repetition of three timed calls per side over the 50 ``stiff-sweep``
    runs (44 of seed 0, six of seed 7919); the band [0.8, 1.25] is loose,
    because the runs share a host that other processes load.  Every replayed
    product-term solve of those runs is bit-identical, and none is worse.
    """
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_timing.py"), SRC, SRC, "--reps", "1", "--repeats", "3",
         "--groups", "stiff-sweep"],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["operations"] == 50 and summary["differ"] == []
    assert 0.8 <= summary["groups"]["stiff-sweep"]["median"] <= 1.25
    solves = summary["solves"]["stiff-sweep"]
    assert solves["calls"] > 0 and solves["identical"] == solves["calls"]
    assert solves["worse"] == summary["worse_solves"] == 0


@pytest.mark.parametrize("line, attr", [("from posinv.errors import ModelError", "ModelError"),
                                        ("import posinv.linalg", "posinv")])
def test_ab_timing_refuses_a_copy_that_imports_posinv_absolutely(line, attr, monkeypatch, tmp_path):
    """A copy holding an installed ``posinv`` module or object would compare that tree; it is refused."""
    ab_timing = load_script("ab_timing", monkeypatch)
    (tmp_path / "src").mkdir()
    copy = tmp_path / "src" / "posinv"
    shutil.copytree(Path(SRC) / "posinv", copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "stability.py", "a", encoding="utf-8") as handle:
        handle.write(f"\n{line}\n")
    name = f"posinv_absolute_{attr}"
    with pytest.raises(SystemExit, match=rf"^{name}\.stability\.{attr} comes from posinv"):
        ab_timing.load_package(str(tmp_path / "src"), name, tmp_path / "loaded")


def test_ab_timing_names_a_cli_operation_that_exits_non_zero(monkeypatch, tmp_path):
    """Every CLI operation must exit 0 on the new tree; one that does not is named with its code."""
    ab_timing = load_script("ab_timing", monkeypatch)
    package = ab_timing.load_package(SRC, "posinv_exit_code", tmp_path)
    workloads = ab_timing.load_workloads(package)
    monkeypatch.setattr(package.cli, "main", lambda argv: 3 if "geco2" in argv else 0)
    ops = ab_timing.cli_ops(package, workloads, str(tmp_path / "scratch"), "new")
    digests, failing, _ = ab_timing.outputs(ops)
    assert len(digests) == 38
    assert failing == ["reproduce/stiff K=1e+06 geco2 dt=1e12 (exit 3)",
                       *(f"reproduce/stability {model} geco2 (exit 3)"
                         for model in ("paper-2x2", "paper-5x5", "paper-stiff?K=10"))]


def test_solve_report_counts_only_a_solve_farther_from_the_root_as_worse(monkeypatch):
    """Of three replayed solves, SRC's tau is the same, one ulp farther from and one ulp closer to the root.

    On (1 - tau/2)^1 = tau the 50-digit root is 2/3; its nearest float
    ``near`` is closer to it than either neighbour, and every tau here
    keeps the factor positive, so only the distance decides.
    """
    ab_timing = load_script("ab_timing", monkeypatch)
    factors, r = [(1.0, -0.5, 1.0)], 1.0
    near = float(ab_timing.product_term_root([1.0], [-0.5], [1.0], r))
    off = math.nextafter(near, 0.0)
    traffic = {"g": [(factors, r)] * 3}
    runs = [{"g": {"tau": taus, "evals": [1] * 3, "loops": [1] * 3}} for taus in ([near, near, off], [near, off, near])]
    figures, lines = ab_timing.solve_report(traffic, runs)
    report = figures["g"]
    assert report["calls"] == 3 and report["identical"] == 1 and report["worse"] == 1
    assert {i: d["worse"] for i, d in report["differing"].items()} == {1: True, 2: False}
    assert report["differing"][1]["from_root"][1] > report["differing"][1]["from_root"][0]
    assert [line.endswith("WORSE") for line in lines if line.startswith("  call ")] == [True, False]


def test_solve_classes_take_the_sign_of_g_exactly():
    """The sign of G that classifies a solve, at 60 digits, is that of exact fractions.

    The taus straddle the root of a subnormal factor, where G's float value
    has no correct digit.
    """
    factors = [(3e-310, -1e-3, 1.0), (0.5, -0.25, 0.7)]
    near = float(oracle.product_term_root([3e-310, 0.5], [-1e-3, -0.25], [1.0, 0.7], 1.0))
    signs = []
    for tau in (0.0, math.ulp(0.0), math.nextafter(near, 0.0), near, math.nextafter(near, 1.0), 0.5):
        prod = math.prod((Fraction(c) + Fraction(d) * Fraction(tau)) / Fraction(s) for c, d, s in factors)
        signs.append(prod - Fraction(tau) > 0)
        assert (oracle.exact_g(factors, 1.0, tau) > 0) == signs[-1]
    assert True in signs and False in signs
