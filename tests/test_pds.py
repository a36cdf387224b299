"""Model layer: linear models, steady states, model files, builtins."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posinv import pds
from posinv.errors import ModelError, NumericsError

from test_linalg import FIVE, oracle, two_by_two


def document_text(matrix, y0) -> str:
    """A model document with every entry written as ``%.17g``."""
    lines = ["kind linear", f"dim {len(y0)}", "matrix"]
    lines += [" ".join(format(v, ".17g") for v in row) for row in matrix]
    lines.append("y0 " + " ".join(format(v, ".17g") for v in y0))
    return "\n".join(lines) + "\n"


class TestLinearPds:
    def test_builds_from_admissible_matrix(self):
        model = pds.LinearPds.from_matrix(FIVE)
        assert model.dimension == 5
        assert model.trace_s_minus == 20.0
        assert model.invariant_rows.shape == (1, 5)
        npt.assert_allclose(model.invariant_rows @ FIVE, 0.0, atol=1e-12)

    def test_rejects_inadmissible(self):
        with pytest.raises(ModelError):
            pds.LinearPds.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ModelError):
            pds.LinearPds.from_matrix(np.array([[0.0, -1.0], [0.0, -1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_matrix_whose_norm_overflows_is_rejected(self):
        """A row or column sum of |A| that overflows would make every rank threshold infinite.

        Such a threshold took all three rows of ``paper-stiff?K=1e308`` as invariants.
        """
        column_sum = pds.resolve_builtin("builtin:paper-stiff?K=1e308").matrix  # 2e308 in column 1
        row_sum = np.array([[-1e308, 1e308], [0.0, 0.0]])
        for a in (column_sum, row_sum):
            with pytest.raises(ModelError, match="norm overflows"):
                pds.LinearPds.from_matrix(a)
        # its sums reach 1.6e308, which is finite
        assert pds.resolve_builtin("builtin:paper-stiff?K=8e307").build().dimension == 3

    @pytest.mark.filterwarnings("error")
    def test_matrix_with_a_subnormal_eigenvalue_is_rejected(self):
        """Rates near 2^-1030 have subnormal eigenvalues, whose reciprocals overflow.

        With no floor under the rank test such a matrix would be analysed, and
        ``critical_step`` and the certificate divide by its eigenvalues.
        2^-1000 times the same matrix loads.
        """
        with pytest.raises(ModelError, match="a nonzero eigenvalue is subnormal"):
            pds.LinearPds.from_matrix(2.0**-1030 * two_by_two(1, 1, 1))
        model = pds.LinearPds.from_matrix(2.0**-1000 * two_by_two(1, 1, 1))
        assert model.nonzero_eigenvalues.tolist() == [-(2.0**-999)]

    @pytest.mark.xfail(strict=True, reason="a relative rank tolerance cannot tell the slow mode -1 from 0")
    @pytest.mark.parametrize("K", ["5e9", "1e10", "1e12"])
    def test_graded_rates_keep_their_one_invariant(self, K):
        """``paper-stiff`` has the one invariant y1 + y2 + y3 at every K.

        Its rates span 1 to K, and beside K the slow mode -1 falls under
        ``RANK_TOL * ||A||``: from K = 5e9 the invariant rows are (1, 1, 0) and
        (0, 0, 1), from K = 1e10 the eigenvalue -1 is lost too, and a run
        reports y3's growth as invariant drift.  A smaller tolerance only
        moves the cut: 1e-13 moves it a thousand times higher.
        """
        rows = pds.resolve_builtin(f"builtin:paper-stiff?K={K}").build().invariant_rows
        assert rows.shape == (1, 3)
        npt.assert_allclose(rows[0] / rows[0, 0], [1.0, 1.0, 1.0], rtol=1e-12)

    def test_holds_a_frozen_copy_of_the_matrix(self):
        """A later write to the caller's array does not reach the model, and the model's is read-only."""
        a = np.array([[-1.0, 2.0], [1.0, -2.0]])
        model = pds.LinearPds.from_matrix(a)
        a[0, 0] = -5.0
        assert model.a[0, 0] == -1.0 and model.trace_s_minus == 3.0
        with pytest.raises(ValueError):
            model.a[0, 0] = -5.0


class TestSteadyState:
    def test_two_by_two(self):
        model = pds.LinearPds.from_matrix(two_by_two(1, 1, 1))
        npt.assert_allclose(
            pds.steady_state_for(model, np.array([2.0, 1.0])), [1.5, 1.5], atol=1e-13
        )

    def test_five_by_five_matches_rational_oracle(self):
        exact = oracle.rational_kernel(FIVE)
        mass = sum(exact, Fraction(0))
        want = np.array([float(13 * x / mass) for x in exact])
        model = pds.LinearPds.from_matrix(FIVE)
        got = pds.steady_state_for(model, np.array([0.0, 3.0, 3.0, 3.0, 4.0]))
        npt.assert_allclose(got, want, atol=1e-12)

    def test_kernel_start_is_fixed(self):
        model = pds.LinearPds.from_matrix(two_by_two(2, 1, 0.5))
        y0 = np.array([1.0, 2.0])  # (b, a) = (1, 2)
        npt.assert_allclose(pds.steady_state_for(model, y0), y0, atol=1e-13)

    @pytest.mark.parametrize("a,b,c", [(1, 1, 1), (0.7, 2.0, 1.3)])
    def test_residual_and_invariant_match(self, a, b, c):
        model = pds.LinearPds.from_matrix(two_by_two(a, b, c))
        y0 = np.array([0.4, 2.5])
        y_star = pds.steady_state_for(model, y0)
        norm_a = np.linalg.norm(model.a, np.inf)
        assert np.linalg.norm(model.a @ y_star, np.inf) <= 1e-10 * norm_a * np.linalg.norm(y_star, np.inf)
        lhs = model.invariant_rows @ y_star
        rhs = model.invariant_rows @ y0
        npt.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_degenerate_kernel_basis_fails(self):
        good = pds.LinearPds.from_matrix(two_by_two(1, 1, 1))
        v = good.kernel_basis[0]
        broken = pds.LinearPds(
            a=good.a, invariant_rows=good.invariant_rows, kernel_basis=[v, v],
            nonzero_eigenvalues=good.nonzero_eigenvalues, trace_s_minus=good.trace_s_minus,
        )
        with pytest.raises(NumericsError):
            pds.steady_state_for(broken, np.array([2.0, 1.0]))


class TestDestructionRateSum:
    def test_five_by_five_constant_twenty(self):
        model = pds.LinearPds.from_matrix(FIVE)
        for y in (np.ones(5), np.array([0.1, 5, 2, 0.3, 9.0]), np.zeros(5)):
            f, rate_sum = model.rhs_and_rate_sum(y)
            assert rate_sum == 20.0
            assert f.tobytes() == (FIVE @ y).tobytes()

    def test_two_by_two_unit_parameters(self):
        model = pds.LinearPds.from_matrix(two_by_two(1, 1, 1))
        assert model.rhs_and_rate_sum(np.array([2.0, 1.0]))[1] == 2.0

    def test_stiff_k100(self):
        doc = pds.resolve_builtin("builtin:paper-stiff?K=100")
        assert doc.build().rhs_and_rate_sum(doc.y0)[1] == 101.0

    def test_general_model_sums_rates(self):
        model = pds.GeneralPds(
            dimension=2,
            production=lambda y: np.array([y[1] ** 2, y[0] * y[1]]),
            destruction_rate=lambda y: np.array([y[1], y[1]]),
        )
        f, rate_sum = model.rhs_and_rate_sum(np.array([1.0, 2.0]))
        assert rate_sum == 4.0
        npt.assert_array_equal(f, model.rhs(np.array([1.0, 2.0])))
        # rates stay evaluable on the boundary of the positive orthant
        assert model.rhs_and_rate_sum(np.array([0.0, 2.0]))[1] == 4.0

    def test_general_model_rhs_is_production_minus_destruction(self):
        model = pds.GeneralPds(
            dimension=2,
            production=lambda y: np.array([y[1] ** 2, y[0] * y[1]]),
            destruction_rate=lambda y: np.array([y[1], y[1]]),
        )
        npt.assert_array_equal(model.rhs(np.array([1.0, 2.0])), [2.0, -2.0])

    def test_general_model_rejects_negative_rates(self):
        model = pds.GeneralPds(
            dimension=1,
            production=lambda y: np.zeros(1),
            destruction_rate=lambda y: np.array([-1.0]),
        )
        with pytest.raises(ModelError):
            model.rhs_and_rate_sum(np.array([1.0]))


class TestModelFiles:
    def test_builtin_five_by_five(self):
        doc = pds.load_model("builtin:paper-5x5")
        npt.assert_array_equal(doc.matrix, FIVE)
        npt.assert_array_equal(doc.y0, [0.0, 3.0, 3.0, 3.0, 4.0])

    def test_builtin_stiff_matrix(self):
        doc = pds.resolve_builtin("builtin:paper-stiff?K=10")
        npt.assert_array_equal(doc.matrix, [[-10, 0, 0], [10, -1, 0], [0, 1, 0]])
        npt.assert_array_equal(doc.y0, [0.98, 0.01, 0.01])

    def test_builtin_two_by_two_params(self):
        doc = pds.resolve_builtin("builtin:paper-2x2?a=2&b=1&c=0.5")
        npt.assert_array_equal(doc.matrix, two_by_two(2, 1, 0.5))

    def test_parse_document(self):
        text = """
        # toy two-species model
        kind linear
        dim 2
        matrix
        -1 1
        1 -1   # rows may carry comments
        y0 2 1
        """
        doc = pds.parse_model(text)
        npt.assert_array_equal(doc.matrix, [[-1, 1], [1, -1]])
        npt.assert_array_equal(doc.y0, [2, 1])

    def test_round_trip_builtins(self):
        for name in ("builtin:paper-2x2?a=0.3&b=4&c=2", "builtin:paper-5x5",
                     "builtin:paper-stiff?K=7"):
            doc = pds.resolve_builtin(name)
            again = pds.parse_model(document_text(doc.matrix, doc.y0))
            npt.assert_array_equal(again.matrix, doc.matrix)
            npt.assert_array_equal(again.y0, doc.y0)

    @given(st.lists(st.floats(-1e12, 1e12).filter(lambda v: v == v), min_size=4, max_size=4),
           st.lists(st.floats(0, 1e12), min_size=2, max_size=2))
    @settings(max_examples=50)
    def test_round_trip_is_identity(self, entries, y0):
        matrix = np.array(entries).reshape(2, 2)
        again = pds.parse_model(document_text(matrix, y0))
        npt.assert_array_equal(again.matrix, matrix)
        npt.assert_array_equal(again.y0, y0)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "kind"),
            ("kind quadratic\ndim 1\nmatrix\n0\ny0 1", "unsupported kind"),
            ("kind linear\ndim 0\nmatrix\ny0", "dimension"),
            ("kind linear\ndim 2\nmatrix\n1 2\n3\ny0 1 2", "expected 2 entries"),
            ("kind linear\ndim 1\nmatrix\ninf\ny0 1", "non-finite"),
            ("kind linear\ndim 1\nmatrix\n0\ny0 one", "bad number"),
            ("kind linear\ndim 1\nmatrix\n0\ny0 1\nextra", "trailing"),
            ("kind linear\ndimension 2\nmatrix\n1 2\n3 4\ny0 1 2", "expected 'dim N'"),
            ("kind linear\ndim two\nmatrix\n1 2\n3 4\ny0 1 2", "bad dimension 'two'"),
            ("kind linear\ndim 2\nrows\n1 2\n3 4\ny0 1 2", "expected 'matrix'"),
            ("kind linear\ndim 2\nmatrix\n1 2\n3 4\ny0 1", "expected 'y0' followed by 2 entries"),
            ("builtin:paper-5x5", "line 1: expected 'kind <linear>'"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ModelError) as err:
            pds.parse_model(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ModelError, match="line 4"):
            pds.parse_model("kind linear\ndim 2\nmatrix\n1 bad\n0 0\ny0 1 2")

    def test_exponent_with_plus_sign(self):
        """The query is not form-decoded: '+' stays part of the number."""
        doc = pds.resolve_builtin("builtin:paper-stiff?K=1e+06")
        assert doc.matrix[0, 0] == -1e6

    def test_unknown_builtin_and_bad_params(self):
        with pytest.raises(ModelError):
            pds.resolve_builtin("builtin:paper-9x9")
        with pytest.raises(ModelError):
            pds.resolve_builtin("builtin:paper-2x2?a=-1")
        with pytest.raises(ModelError):
            pds.resolve_builtin("builtin:paper-stiff?K=0")
        with pytest.raises(ModelError):
            pds.resolve_builtin("builtin:paper-stiff?K=ten")
        with pytest.raises(ModelError):
            pds.resolve_builtin("builtin:paper-2x2?zeta=1")
        with pytest.raises(ModelError, match="repeated parameter 'a'"):
            pds.resolve_builtin("builtin:paper-2x2?a=1&a=2")

    def test_load_model_from_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(document_text(FIVE, [0.0, 3.0, 3.0, 3.0, 4.0]))
        doc = pds.load_model(str(path))
        npt.assert_array_equal(doc.matrix, FIVE)
        npt.assert_array_equal(doc.y0, [0.0, 3.0, 3.0, 3.0, 4.0])

    def test_load_model_unreadable_file_is_a_model_error(self, tmp_path):
        """A file that is not UTF-8 and a path with a NUL byte fail as the file does not read."""
        path = tmp_path / "model.txt"
        path.write_bytes(b"kind linear\ndim 1\nmatrix\n0\ny0 \xff\n")
        for source in (str(path), str(path) + "\0"):
            with pytest.raises(ModelError, match="cannot read model file"):
                pds.load_model(source)

    def test_load_model_missing_file(self):
        """A source is a ``builtin:`` address or a path; document text is no file."""
        for source in ("/no/such/model.txt", "kind linear\ndim 1\nmatrix\n0\ny0 1\n"):
            with pytest.raises(ModelError, match="cannot read model file"):
                pds.load_model(source)
