"""Eigenvalues, kernels, exponential action, admissibility of a system.

Expected values come from closed forms (the 2x2 family has spectrum
{0, -(a*c+b)}), from exact rational elimination on the integer 5x5 matrix,
and from the reference closed-form solution of the stiff 3x3 problem,
evaluated in extended precision and frozen below.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import posinv
from posinv import linalg
from posinv.errors import ModelError, NumericsError
from posinv.pds import LinearPds

RNG = np.random.default_rng(42)

_ORACLE_SPEC = importlib.util.spec_from_file_location(
    "gen_oracle_values", Path(__file__).resolve().parent.parent / "scripts" / "gen_oracle_values.py"
)
#: ``scripts/gen_oracle_values.py``, the one copy of the exact and 40-digit oracles.
oracle = importlib.util.module_from_spec(_ORACLE_SPEC)
_ORACLE_SPEC.loader.exec_module(oracle)


def two_by_two(a, b, c):
    return np.array([[-a * c, b * c], [a, -b]])


FIVE = np.array(
    [
        [-4, 2, 1, 2, 2],
        [1, -4, 1, 0, 2],
        [0, 0, -4, 2, 0],
        [2, 2, 2, -4, 0],
        [1, 0, 0, 0, -4],
    ],
    dtype=float,
)

STIFF_K10 = np.array([[-10.0, 0.0, 0.0], [10.0, -1.0, 0.0], [0.0, 1.0, 0.0]])

# closed-form solution of the stiff problem at K=10, t=1, y0=(0.98,0.01,0.01),
# evaluated at 40 digits
STIFF_K10_T1 = np.array(
    [4.4491931167235154505e-5, 0.40420919487487691211, 0.59574631319395585273]
)


class TestEigenvalues:
    @pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 1, 0.5), (0.3, 4, 2)])
    def test_two_by_two_closed_form(self, a, b, c):
        """Spectrum of the 2x2 family is {0, -(a*c+b)}."""
        vals = linalg.eigenvalues(two_by_two(a, b, c))
        got = sorted(vals.real)
        npt.assert_allclose(got, [-(a * c + b), 0.0], atol=1e-10)
        npt.assert_allclose(vals.imag, 0.0, atol=1e-10)

    def test_identity(self):
        npt.assert_allclose(linalg.eigenvalues(np.eye(3)), np.ones(3), atol=1e-12)

    def test_five_by_five_closed_form(self):
        """{0, -5-sqrt(3), -5+sqrt(3), -5-i, -5+i} to 1e-10."""
        got = sorted(linalg.eigenvalues(FIVE), key=lambda z: (round(z.real, 6), z.imag))
        want = sorted(
            [0, -5 - math.sqrt(3), -5 + math.sqrt(3), complex(-5, -1), complex(-5, 1)],
            key=lambda z: (round(np.real(z), 6), np.imag(z)),
        )
        npt.assert_allclose(got, want, atol=1e-10)

    def test_conjugate_pairs(self):
        vals = linalg.eigenvalues(FIVE)
        tol = 1e-12 * max(np.linalg.norm(FIVE, "fro"), 1.0)
        for v in vals:
            if abs(v.imag) > tol:
                assert np.min(np.abs(vals - v.conjugate())) <= 1e-10

    def test_rejects_oversize_and_bad_input(self):
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.zeros((65, 65)))
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.array([[np.nan, 0], [0, 1]]))


class TestNullspace:
    @pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 1, 0.5), (0.3, 4, 2)])
    def test_two_by_two_kernel_direction(self, a, b, c):
        """ker(A) = span{(b, a)}, returned with unit max-norm."""
        (v,) = linalg.nullspace(two_by_two(a, b, c))
        assert np.max(np.abs(v)) == pytest.approx(1.0)
        npt.assert_allclose(v[0] * a - v[1] * b, 0.0, atol=1e-12 * max(a, b))

    def test_identity_trivial(self):
        assert linalg.nullspace(np.eye(4)) == []

    def test_five_by_five_against_rational_oracle(self):
        """Normalized to total mass 13 the kernel vector is integer-valued."""
        exact = oracle.rational_kernel(FIVE)
        mass = sum(exact, Fraction(0))
        want = np.array([float(13 * x / mass) for x in exact])
        (v,) = linalg.nullspace(FIVE)
        got = 13.0 * v / np.sum(v)
        npt.assert_allclose(got, want, atol=1e-10)

    def test_transpose_kernel_gives_invariant_rows(self):
        (n,) = linalg.nullspace(FIVE.T)
        npt.assert_allclose(n / n[0], np.ones(5), atol=1e-10)

    def test_residual_bound_on_random_singular_matrices(self):
        """||A v||_inf <= RANK_TOL * ||A||_inf * ||v||_inf for every basis vector."""
        for n in range(2, 9):
            a = RNG.uniform(-2, 2, size=(n, n))
            a[:, -1] = -a[:, :-1].sum(axis=1)  # force a kernel
            norm = np.linalg.norm(a, np.inf)
            basis = linalg.nullspace(a)
            assert basis
            for v in basis:
                assert np.linalg.norm(a @ v, np.inf) <= 1e-10 * norm * np.linalg.norm(v, np.inf)


class TestExpmApply:
    def test_zero_time_is_identity(self):
        y0 = np.array([1.0, 2.0, 3.0])
        npt.assert_array_equal(linalg.expm_apply(np.eye(3), y0, 0.0), y0)

    def test_stiff_closed_form(self):
        """Matches the reference solution of the stiff problem to 1e-10."""
        y0 = np.array([0.98, 0.01, 0.01])
        got = linalg.expm_apply(STIFF_K10, y0, 1.0)
        npt.assert_allclose(got, STIFF_K10_T1, atol=1e-10)

    def test_long_time_limit_two_by_two(self):
        """exp(tA) y0 -> steady state sharing the invariant y1 + y2."""
        got = linalg.expm_apply(two_by_two(1, 1, 1), np.array([2.0, 1.0]), 40.0)
        npt.assert_allclose(got, [1.5, 1.5], atol=1e-12)

    def test_semigroup_property(self):
        y = np.array([0.0, 3.0, 3.0, 3.0, 4.0])
        for s, t in [(0.3, 1.7), (0.5, 0.5), (2.0, 0.25), (1.1, 1.9)]:
            lhs = linalg.expm_apply(FIVE, y, s + t)
            rhs = linalg.expm_apply(FIVE, linalg.expm_apply(FIVE, y, t), s)
            assert np.linalg.norm(lhs - rhs, np.inf) <= 1e-10 * np.linalg.norm(y, np.inf)

    @pytest.mark.parametrize("mat", [FIVE, STIFF_K10])
    def test_mass_conservation_for_zero_column_sums(self, mat):
        y0 = RNG.uniform(0.1, 2.0, size=mat.shape[0])
        for t in (0.1, 1.0, 7.5):
            out = linalg.expm_apply(mat, y0, t)
            assert abs(np.sum(out) - np.sum(y0)) <= 1e-11 * abs(np.sum(y0))

    def test_cross_check_against_scipy(self):
        for mat in (FIVE, STIFF_K10, two_by_two(2, 1, 0.5)):
            y0 = RNG.uniform(0.1, 1.0, size=mat.shape[0])
            for t in (0.2, 1.0, 3.7):
                want = scipy.linalg.expm(t * mat) @ y0
                got = linalg.expm_apply(mat, y0, t)
                npt.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_overflow_is_explicit(self):
        with pytest.raises(NumericsError):
            linalg.expm_apply(np.array([[800.0]]), np.array([1.0]), 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            linalg.expm_apply(np.eye(2), np.ones(2), -1.0)

    @pytest.mark.parametrize("a, t", [(FIVE, 1e308), (two_by_two(1, 1, 1), 1.5 * 2.0**1022)],
                             ids=["t*a-not-finite", "norm-beyond-scaling"])
    def test_overflowed_scaling_is_a_numerics_error(self, a, t):
        """t*a that overflows, or whose norm 2^s cannot scale, raises with no numpy warning."""
        with pytest.raises(NumericsError, match="^matrix exponential overflowed$"):
            linalg.expm(a, t)

    def test_not_exported_by_the_package(self):
        """The package reaches the exponential through ``linalg.expm`` alone."""
        assert not hasattr(posinv, "expm_apply")


class TestValidateSystem:
    def test_five_by_five_all_flags(self):
        """Every condition of the class holds; the kernel and invariant are one-dimensional."""
        rows, basis, lams = linalg.validate_system(FIVE)
        assert rows.shape == (1, 5) and len(basis) == 1 and lams.shape == (4,)
        npt.assert_allclose(rows @ FIVE, 0.0, atol=1e-12)
        npt.assert_allclose(FIVE @ basis[0], 0.0, atol=1e-12)

    @pytest.mark.parametrize("a, message", [
        (
            np.array([[0.0, -1.0], [1.0, 0.0]]),
            "matrix is not Metzler",
        ),
        (
            np.array([[-1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 0.0]]),  # eigenvalue 1
            "matrix is outside the conservative Metzler class: kernel_dim=1, "
            "multiplicities_match=True, spectrum_nonpositive=False, proper_metzler=True",
        ),
        (
            np.zeros((3, 3)),  # nonzero flag: a zero matrix has no negative diagonal entry
            "matrix is outside the conservative Metzler class: kernel_dim=3, "
            "multiplicities_match=True, spectrum_nonpositive=True, proper_metzler=False",
        ),
        (
            np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),  # Jordan block at 0
            "matrix is outside the conservative Metzler class: kernel_dim=1, "
            "multiplicities_match=False, spectrum_nonpositive=True, proper_metzler=True",
        ),
    ], ids=["non-metzler", "positive-eigenvalue", "zero-matrix", "jordan-block"])
    def test_rejection_message(self, a, message):
        """``validate_system`` and ``LinearPds.from_matrix`` raise the same text."""
        for check in (linalg.validate_system, LinearPds.from_matrix):
            with pytest.raises(ModelError) as info:
                check(a)
            assert str(info.value) == message
