"""Stability functions, critical steps, Jacobians, classification.

Frozen expected values (40-digit offline evaluation, see
scripts/gen_oracle_values.py):

    (5 - sqrt(3))/11                  = 0.29708629022101115513
    critical dt, geco2 on the 5x5    = 0.35714708771109939771
    certificate of the 5x5: M        = 0.29708629022101115513, product = 5.9417258
    geco2 value at (-2.404688, 7.144) = -1.000295602965406927
    region endpoint z*                = -3.92235950274307894119
"""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from posinv import stability
from posinv.errors import NumericsError
from posinv.integrators import (
    SCHEME_IDS,
    GbbksStrategy,
    SchemeSpec,
    integrate,
    make_scheme,
    phi,
    step_map,
)
from posinv.pds import LinearPds, resolve_builtin, steady_state_for

from test_linalg import FIVE, two_by_two

BBKS_DT = 0.29708629022101115513
GECO2_DT = 0.35714708771109939771
Z_STAR = -3.92235950274307894119

MODEL_5X5 = LinearPds.from_matrix(FIVE)
UNIT_2X2 = LinearPds.from_matrix(two_by_two(1, 1, 1))


def _builtin(address):
    doc = resolve_builtin(f"builtin:{address}")
    return doc.matrix, doc.y0


#: (matrix, start state) of the power-of-two scaling tests: the three
#: builtins and four random draws.
SCALING_MODELS = {
    address: _builtin(address) for address in ("paper-2x2", "paper-5x5", "paper-stiff?K=10")
} | {
    f"random-{seed}-{n}": (stability.random_conservative_system(seed, n).a, np.ones(n))
    for seed, n in ((0, 3), (1, 4), (2, 6), (3, 8))
}


def family_strategy(sigma, r, q):
    """A product-term strategy with pi = y and the constant exponents r and q."""
    return GbbksStrategy(sigma=sigma, r=lambda y: r, pi=lambda y: y, q=lambda y: q)


#: gBBKS schemes other than the presets; each has sigma(v, v) = pi(v) = v.
FAMILY = {
    "gbbks1-r2": SchemeSpec("gbbks1", strategy=family_strategy(lambda y, y2=None: y, 2.0, 1.0)),
    **{
        f"gbbks2-alpha{alpha:g}": SchemeSpec(
            "gbbks2", alpha=alpha, strategy=family_strategy(lambda y, y2: np.sqrt(y * y2), 3.0, 2.0)
        )
        for alpha in (0.5, 1.0, 3.0)
    },
}


class TestStabilityValue:
    def test_first_order_boundary(self):
        assert stability.stability_value("gbbks1", -2.0) == pytest.approx(-1.0)
        assert stability.stability_value("euler", -2.0) == pytest.approx(-1.0)

    def test_second_order_boundary(self):
        assert stability.stability_value("gbbks2", -2.0) == pytest.approx(1.0)
        assert stability.stability_value("heun", -2.0) == pytest.approx(1.0)

    def test_geco2_near_critical(self):
        got = stability.stability_value("geco2", -2.404688, 7.144)
        npt.assert_allclose(got.real, -1.000295602965406927, rtol=1e-13)
        assert got.imag == 0.0

    def test_geco1_uses_damped_argument(self):
        z = complex(-1.0, 0.5)
        want = 1.0 + z * phi(3.0)
        assert stability.stability_value("geco1", z, 3.0) == want

    def test_accepts_scheme_spec(self):
        spec = make_scheme("gbbks2")
        assert stability.stability_value(spec, -1.0) == pytest.approx(0.5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            stability.stability_value("rk4", -1.0)


class TestCriticalStep:
    @pytest.mark.parametrize("name", ["gbbks1", "gbbks2"])
    def test_product_term_schemes_on_5x5(self, name):
        crit = stability.critical_step(MODEL_5X5, make_scheme(name))
        assert not crit.unconditional
        assert crit.dt_star == pytest.approx(BBKS_DT, abs=1e-8)
        assert crit.binding_eigenvalue.real == pytest.approx(-5.0 - math.sqrt(3.0), abs=1e-8)

    def test_geco2_on_5x5(self):
        crit = stability.critical_step(MODEL_5X5, make_scheme("geco2"))
        assert crit.dt_star == pytest.approx(GECO2_DT, abs=1e-8)

    def test_geco1_unconditional(self):
        crit = stability.critical_step(MODEL_5X5, make_scheme("geco1"))
        assert crit.unconditional
        assert crit.dt_star is None

    def test_boundary_consistency(self):
        """|stability value| at dt* and the binding eigenvalue equals 1 to 1e-8."""
        for name in ("gbbks1", "gbbks2", "geco2", "euler", "heun"):
            crit = stability.critical_step(MODEL_5X5, make_scheme(name))
            value = stability.stability_value(
                name, crit.dt_star * crit.binding_eigenvalue,
                crit.dt_star * MODEL_5X5.trace_s_minus,
            )
            assert abs(value) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k", [-900, -300, -30, -11, 11, 30, 300, 900])
    @pytest.mark.parametrize("model_id", SCALING_MODELS)
    def test_scaled_matrix_scales_the_critical_step(self, model_id, k):
        """2^k*A has 2^-k times the dt* of A: the search starts and is capped in z, not in dt.

        Under an absolute cap on dt, the 5x5 model scaled by 2^-30 read
        "unconditional" for every scheme.  Doubling from the absolute dt 1e-6
        gave dt* 0 for every scheme from 2^-36 times it on, where each
        stability value at that dt rounds to 1.
        """
        a = SCALING_MODELS[model_id][0]
        model, scaled = LinearPds.from_matrix(a), LinearPds.from_matrix(2.0**k * a)
        for name in SCHEME_IDS:
            crit = stability.critical_step(scaled, make_scheme(name))
            unscaled = stability.critical_step(model, make_scheme(name))
            assert crit.unconditional == unscaled.unconditional == (name == "geco1")
            if name != "geco1":
                assert crit.dt_star * 2.0**k == pytest.approx(unscaled.dt_star, rel=1e-9)


class TestCertificate:
    def test_five_by_five(self):
        cert = stability.unconditional_certificate(MODEL_5X5)
        # min{2*6.7321/45.3205, 2*3.2679/10.6795, 10/26} = 2/(5+sqrt(3))
        assert cert.m_value == pytest.approx(BBKS_DT, abs=1e-12)
        assert cert.product == pytest.approx(20.0 * BBKS_DT, abs=1e-10)
        assert cert.holds

    def test_two_by_two_unit(self):
        cert = stability.unconditional_certificate(UNIT_2X2)
        assert cert.m_value == pytest.approx(1.0, abs=1e-12)
        assert cert.product == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("k", [-900, -520, -300, -11, 11, 300, 520, 900])
    @pytest.mark.parametrize("model_id", SCALING_MODELS)
    @pytest.mark.filterwarnings("error")
    def test_scaled_matrix_keeps_the_certificate(self, model_id, k):
        """2^k*A has the certificate of A; 2|Re lambda| / |lambda|^2 overflowed from k = 512 on."""
        a = SCALING_MODELS[model_id][0]
        cert = stability.unconditional_certificate(LinearPds.from_matrix(2.0**k * a))
        unscaled = stability.unconditional_certificate(LinearPds.from_matrix(a))
        assert cert.holds
        assert cert.product == pytest.approx(unscaled.product, rel=1e-12)

    def test_single_decay_mode(self):
        model = LinearPds.from_matrix(np.array([[-3.0, 0.0], [0.0, 0.0]]))
        cert = stability.unconditional_certificate(model)
        assert cert.m_value == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert cert.product == pytest.approx(2.0, abs=1e-12)


class TestJacobians:
    @pytest.mark.parametrize("name", SCHEME_IDS)
    @pytest.mark.parametrize("model,y0,dt", [
        (UNIT_2X2, np.array([2.0, 1.0]), 1.0),
        # probe the 5x5 inside the stable range of all six schemes
        (MODEL_5X5, np.array([0.0, 3.0, 3.0, 3.0, 4.0]), 0.25),
    ])
    def test_finite_difference_matches_closed_form(self, name, model, y0, dt):
        """Probe accuracy is O(h) only: the maps are C^1 with Lipschitz slopes."""
        y_star = steady_state_for(model, y0)
        scheme = make_scheme(name)
        closed = stability.closed_form_jacobian(model, scheme, dt)
        probed = stability.numerical_jacobian(step_map(model, scheme, dt), y_star)
        assert np.max(np.abs(probed - closed)) <= 1e-4

    def test_geco1_closed_form_value(self):
        # I + Phi(1) A with Phi(1) = (1 - exp(-2))/2 on the unit 2x2
        want = np.eye(2) + 0.43233235838169365405 * UNIT_2X2.a
        npt.assert_allclose(
            stability.closed_form_jacobian(UNIT_2X2, "geco1", 1.0), want, rtol=1e-14
        )

    @pytest.mark.parametrize("name", SCHEME_IDS)
    def test_kernel_vectors_are_eigenvectors(self, name):
        """Jacobian times a kernel vector reproduces it to 1e-10."""
        for model in (UNIT_2X2, MODEL_5X5):
            jac = stability.closed_form_jacobian(model, name, 0.7)
            for v in model.kernel_basis:
                npt.assert_allclose(jac @ v, v, atol=1e-10)

    def test_zero_entry_has_no_probe_step(self):
        with pytest.raises(ValueError, match="probe step for entry 1 is zero"):
            stability.numerical_jacobian(lambda y: y, np.array([1.0, 0.0]))

    def test_probe_failure_is_explicit(self):
        def broken(y):
            return np.full_like(y, np.nan)

        with pytest.raises(NumericsError):
            stability.numerical_jacobian(broken, np.ones(2))

    @pytest.mark.parametrize("name", SCHEME_IDS)
    @pytest.mark.parametrize("model", [UNIT_2X2, MODEL_5X5], ids=["2x2", "5x5"])
    def test_spectrum_is_the_stability_value(self, name, model):
        """Eigenvalues of the Jacobian are the stability values at dt*lambda.

        Both come from the scheme's damping factors, one through dt*A and one
        through each eigenvalue of A, so they agree to roundoff (measured
        worst 9e-15 relative to max(1, |value|)).
        """
        lams = np.linalg.eigvals(model.a)
        for dt in (0.05, 0.25, 1.0, 3.0):
            got = list(np.linalg.eigvals(stability.closed_form_jacobian(model, name, dt)))
            for lam in lams:
                want = stability.stability_value(name, dt * lam, dt * model.trace_s_minus)
                nearest = got.pop(int(np.argmin([abs(g - want) for g in got])))
                assert abs(nearest - want) <= 1e-12 * max(1.0, abs(want))


class TestClassifyFixedPoint:
    Y_STAR_5 = np.array([4.0, 2.0, 2.0, 4.0, 1.0])

    def test_geco1_stable_at_unit_step(self):
        report = stability.classify_fixed_point(MODEL_5X5, make_scheme("geco1"), self.Y_STAR_5, 1.0)
        assert report.verdict == "stable"
        assert report.kernel_count == 1
        assert report.non_kernel_radius < 1.0

    def test_geco2_unstable_past_critical(self):
        report = stability.classify_fixed_point(
            MODEL_5X5, make_scheme("geco2"), self.Y_STAR_5, 0.3576
        )
        assert report.verdict == "unstable"

    def test_gbbks1_stable_below_critical(self):
        report = stability.classify_fixed_point(
            MODEL_5X5, make_scheme("gbbks1"), self.Y_STAR_5, 0.2968
        )
        assert report.verdict == "stable"

    @pytest.mark.parametrize("name", ["geco2", "gbbks1", "gbbks2"])
    def test_verdict_flips_across_critical_step(self, name):
        scheme = make_scheme(name)
        crit = stability.critical_step(MODEL_5X5, scheme)
        below = stability.classify_fixed_point(
            MODEL_5X5, scheme, self.Y_STAR_5, crit.dt_star * (1 - 1e-3)
        )
        above = stability.classify_fixed_point(
            MODEL_5X5, scheme, self.Y_STAR_5, crit.dt_star * (1 + 1e-3)
        )
        assert below.verdict == "stable"
        assert above.verdict == "unstable"

    @pytest.mark.parametrize("name", ["geco2", "gbbks1", "gbbks2"])
    @pytest.mark.parametrize("seed", [7, 90, 141])
    def test_small_steady_state_entries_classify(self, seed, name):
        """random:4 systems whose smallest steady-state entry is 4e-4 to 2e-3.

        The step maps' curvature grows like dt / y*_i, so a probe step
        h*max(1, |y*_i|) missed the closed form by up to 3.2e-3 here, beyond
        the 1e-3 bound; the relative probe h*|y*_i| classifies both sides.
        """
        model = stability.random_conservative_system(seed, 4)
        y_star = steady_state_for(model, np.ones(4))
        scheme = make_scheme(name)
        dt_star = stability.critical_step(model, scheme).dt_star
        below = stability.classify_fixed_point(model, scheme, y_star, 0.9 * dt_star)
        above = stability.classify_fixed_point(model, scheme, y_star, 1.1 * dt_star)
        assert (below.verdict, above.verdict) == ("stable", "unstable")

    @pytest.mark.parametrize("name", FAMILY)
    def test_gbbks_family_beyond_the_presets(self, name):
        """Strategies other than the presets, with sigma(v, v) = pi(v) = v, share the presets' dt*.

        gbbks1 with r = 2, and gbbks2 with q = 2, r = 3, pi = y and
        sigma = sqrt(y*y2): the verdict flips across dt* (with the
        finite-difference cross-check), a 1e-5 in-plane perturbation of y*
        decays below 1e-12 at 0.95*dt* and grows past 1e-3 at 1.05*dt*, and
        the invariant stays to 1e-12.
        """
        scheme = FAMILY[name]
        dt_star = stability.critical_step(MODEL_5X5, scheme).dt_star
        start = self.Y_STAR_5 + 1e-5 * np.array([1.0, -1.0, 1.0, -1.0, 0.0])
        for factor, verdict in ((0.95, "stable"), (1.05, "unstable")):
            dt = factor * dt_star
            report = stability.classify_fixed_point(MODEL_5X5, scheme, self.Y_STAR_5, dt)
            assert report.verdict == verdict
            traj = integrate(MODEL_5X5, scheme, start, dt, 3000)
            distance = np.max(np.abs(traj.final - self.Y_STAR_5))
            assert distance <= 1e-12 if verdict == "stable" else distance > 1e-3
            assert np.max(traj.invariant_defect) <= 1e-12

    def test_exactly_critical_step_is_inconclusive(self):
        """On the tolerance band around the unit circle no verdict is guessed."""
        crit = stability.critical_step(MODEL_5X5, make_scheme("gbbks1"))
        report = stability.classify_fixed_point(
            MODEL_5X5, make_scheme("gbbks1"), self.Y_STAR_5, crit.dt_star
        )
        assert report.verdict == "inconclusive"

    def test_rejects_non_steady_state(self):
        with pytest.raises(ValueError):
            stability.classify_fixed_point(MODEL_5X5, "geco1", np.ones(5), 1.0)
        with pytest.raises(ValueError):
            stability.classify_fixed_point(MODEL_5X5, "geco1", -self.Y_STAR_5, 1.0)


class TestPowerOfTwoScale:
    """2^k*A gets A's answers, and 2^j*y0 gets 2^j times the states of y0.

    Scaling A by 2^k and dt by 2^-k is exact in floating point while no entry
    leaves the normal range, and each scheme's step, Jacobian and stability
    value depend on dt and A only through dt*A and dt*trace(S-); with no
    absolute floor under a test, the analysis of 2^k*A is the analysis of A.
    The critical step and the certificate are checked by the scaled-matrix
    tests above.  Excluded: 2^±900 from the verdicts, where the closed-form
    Jacobian's A @ A leaves the float range, and from the runs, where
    paper-stiff's A @ y goes subnormal by step 44 at 2^-900; and paper-stiff
    from the verdicts, as its steady state (0, 0, 1) is not strictly positive.
    """

    @pytest.mark.parametrize("k", [-900, -300, -11, 11, 300, 900])
    @pytest.mark.parametrize("model_id", SCALING_MODELS)
    def test_scaled_matrix_has_the_same_analysis(self, model_id, k):
        """Invariant rows and kernel basis have A's bits; eigenvalues agree to 1e-12 relative.

        The elimination is exact under 2^k; LAPACK's eigvals is not, so the
        eigenvalues are held to a relative bound (1.2e-15 measured).
        """
        a = SCALING_MODELS[model_id][0]
        model, scaled = LinearPds.from_matrix(a), LinearPds.from_matrix(2.0**k * a)
        assert scaled.invariant_rows.tobytes() == model.invariant_rows.tobytes()
        assert np.array(scaled.kernel_basis).tobytes() == np.array(model.kernel_basis).tobytes()
        assert scaled.trace_s_minus == 2.0**k * model.trace_s_minus
        npt.assert_allclose(
            np.sort_complex(scaled.nonzero_eigenvalues) * 2.0**-k,
            np.sort_complex(model.nonzero_eigenvalues),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("k", [-300, -11, 11, 300])
    @pytest.mark.parametrize("model_id", [m for m in SCALING_MODELS if not m.startswith("paper-stiff")])
    def test_scaled_matrix_has_the_same_verdicts(self, model_id, k):
        """Verdict and kernel count at 0.5, 0.95 and 1.05 dt*; y* + 0.5 e_1 is not a steady state."""
        a, y0 = SCALING_MODELS[model_id]
        model, scaled = LinearPds.from_matrix(a), LinearPds.from_matrix(2.0**k * a)
        y_star = steady_state_for(model, y0)
        bumped = y_star + 0.5 * np.eye(len(y0))[0]
        euler_dt = stability.critical_step(model, "euler").dt_star
        for name in SCHEME_IDS:
            # geco1 has no dt* on these models; it is probed at euler's
            dt_star = stability.critical_step(model, name).dt_star or euler_dt
            for factor in (0.5, 0.95, 1.05):
                want = stability.classify_fixed_point(model, name, y_star, factor * dt_star)
                got = stability.classify_fixed_point(scaled, name, y_star, factor * dt_star * 2.0**-k)
                assert (got.verdict, got.kernel_count) == (want.verdict, want.kernel_count), (name, factor)
            with pytest.raises(ValueError, match="not a steady state"):
                stability.classify_fixed_point(scaled, name, bumped, dt_star * 2.0**-k)

    @pytest.mark.parametrize("k", [-300, -11, 11, 300])
    @pytest.mark.parametrize("model_id", SCALING_MODELS)
    def test_scaled_matrix_has_the_same_runs(self, model_id, k):
        """Every scheme, 50 steps at dt 0.3 on A and 0.3 * 2^-k on 2^k*A: the same state bytes."""
        a, y0 = SCALING_MODELS[model_id]
        model, scaled = LinearPds.from_matrix(a), LinearPds.from_matrix(2.0**k * a)
        for name in SCHEME_IDS:
            want = integrate(model, make_scheme(name), y0, 0.3, 50).states
            got = integrate(scaled, make_scheme(name), y0, 0.3 * 2.0**-k, 50).states
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("j", [-300, 300])
    @pytest.mark.parametrize("model_id", SCALING_MODELS)
    def test_scaled_start_scales_the_states(self, model_id, j):
        """Steady state and runs from 2^j*y0 are 2^j times those from y0, with the same defects."""
        a, y0 = SCALING_MODELS[model_id]
        model = LinearPds.from_matrix(a)
        want = 2.0**j * steady_state_for(model, y0)
        assert steady_state_for(model, 2.0**j * y0).tobytes() == want.tobytes()
        for name in SCHEME_IDS:
            run = integrate(model, make_scheme(name), y0, 0.3, 50)
            scaled = integrate(model, make_scheme(name), 2.0**j * y0, 0.3, 50)
            assert scaled.states.tobytes() == (2.0**j * run.states).tobytes(), name
            assert scaled.invariant_defect.tobytes() == run.invariant_defect.tobytes(), name


class TestRegionEndpoint:
    def test_endpoint_and_residuals(self):
        out = stability.geco2_region_endpoint()
        assert out.z_star == pytest.approx(Z_STAR, abs=1e-9)
        assert out.stability_residual <= 1e-10
        assert abs(out.reduced_equation_residual) <= 1e-8

    def test_reported_bracket_is_flagged(self):
        out = stability.geco2_region_endpoint()
        assert stability.REPORTED_ENDPOINT_BRACKET == (-3.9924, -3.9923)
        assert not out.agrees_with_reported

    def test_interior_values(self):
        # R(0) = 1 and R(-2) = -exp(-2)/... = -0.13533528 (well inside the region)
        assert stability.stability_value("geco2", 0.0, 0.0) == pytest.approx(1.0)
        r2 = stability.stability_value("geco2", -2.0, 2.0)
        npt.assert_allclose(r2.real, -0.13533528323661269189, rtol=1e-13)


class TestRandomSystems:
    def test_deterministic_per_seed(self):
        a = stability.random_conservative_system(7, 5).a
        b = stability.random_conservative_system(7, 5).a
        npt.assert_array_equal(a, b)

    def test_structural_flags(self):
        from posinv.linalg import validate_system

        for seed in range(10):
            model = stability.random_conservative_system(seed, 2 + seed % 7)
            npt.assert_allclose(model.a.sum(axis=0), 0.0, atol=1e-12)
            rows, basis, lams = validate_system(model.a)
            npt.assert_array_equal(rows, model.invariant_rows)
            npt.assert_array_equal(basis, model.kernel_basis)
            npt.assert_array_equal(lams, model.nonzero_eigenvalues)

    @pytest.mark.parametrize(
        "seed, n, sha256",
        [
            (20, 2, "6d16659dc636383f792a35be468a14f3adc34a9d46853740b0401c6aed2762ea"),
            (31, 2, "28edfa132c402710ddec9b32e5b4d061191ad7ba96aea8cb4433a83c2697ea3b"),
            (0, 3, "6133a91dc774ee114ebd3f4f4d736f9ae71427c9c50857ec5f49eaaea163a456"),
            (7, 4, "a1e3232daabd63acbfe9db74ee46f956f429072f419c831dbcffef1af75690e1"),
            (5, 8, "7e64c3372196b59c39f2cccbfad9610af50331d013d444fe3d920b90b8abbd4f"),
            (0, 16, "cc9d18f5bcfdee6ed1c08d6754b1ce15d4e52c3d56d5eb88305a655cc0672671"),
        ],
    )
    def test_matrix_bits_are_pinned(self, seed, n, sha256):
        """The SHA-256 of each matrix's bytes, as drawn when a separate validation picked the draw.

        Seeds 20 and 31 at n = 2 reject two and one draws before accepting one.
        """
        a = stability.random_conservative_system(seed, n).a
        assert hashlib.sha256(a.tobytes()).hexdigest() == sha256

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            stability.random_conservative_system(0, 1)

    @pytest.mark.parametrize("n", [65, 200000])
    def test_rejects_large_dimension_before_drawing(self, monkeypatch, n):
        def no_rng(seed):
            raise AssertionError("the generator must not be created for an oversized n")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.raises(ValueError, match="n <= 64"):
            stability.random_conservative_system(0, n)
