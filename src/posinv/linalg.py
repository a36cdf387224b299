"""Small dense real linear algebra for the integrator and stability toolkit.

Everything here operates on plain numpy arrays at desk scale (N <= 64):
eigenvalues, numerical kernels, matrix exponential action, and the one
admissibility check of conservative Metzler systems (zero-row-sum invariants
are not assumed; invariants come from ker(A^T)).

All functions are pure; arrays are never mutated in place.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError, NumericsError

MAX_DIM = 64

#: Relative tolerance below which a pivot or an eigenvalue counts as zero.
RANK_TOL = 1e-10


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square real matrix, as a complex array.

    Delegates to the LAPACK nonsymmetric QR driver (Hessenberg reduction
    followed by shifted QR with 2x2-block deflation).  Non-convergence is
    surfaced as :class:`NumericsError`, never silently.
    """
    a = _as_square(a)
    n = a.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds supported maximum {MAX_DIM}")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigenvalue iteration did not converge: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise NumericsError("eigenvalue computation produced non-finite values")
    return np.asarray(vals, dtype=complex)


def nullspace(a) -> list[np.ndarray]:
    """Basis of the numerical kernel of ``a`` via elimination with partial pivoting.

    Returns one vector per free column of the row-reduced matrix, each scaled
    to unit max-norm.  The same routine serves ker(A) and, applied to ``a.T``,
    the invariant rows ker(A^T).  Entries below ``RANK_TOL * ||A||_inf`` are
    treated as zero, with no absolute floor, so ``2^k*A`` has A's kernel.
    """
    a = _as_square(a)
    n = a.shape[0]
    thresh = RANK_TOL * np.linalg.norm(a, np.inf)

    m = a.copy()
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        if row >= n:
            break
        p = row + int(np.argmax(np.abs(m[row:, col])))
        if abs(m[p, col]) <= thresh:
            continue
        if p != row:
            m[[row, p]] = m[[p, row]]
        m[row] = m[row] / m[row, col]
        for i in range(n):
            if i != row and m[i, col] != 0.0:
                m[i] = m[i] - m[i, col] * m[row]
        pivot_cols.append(col)
        row += 1

    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = np.zeros(n)
        v[fc] = 1.0
        for i, pc in enumerate(pivot_cols):
            v[pc] = -m[i, fc]
        v = v / np.max(np.abs(v))
        basis.append(v)
    return basis


def expm(a, t: float) -> np.ndarray:
    """The matrix exponential exp(t*a).

    Scaling and squaring with a diagonal Pade core of order 6; the matrix is
    scaled until ||t*a||_inf / 2^s <= 0.5.  The core is accurate to roundoff,
    but each of the s squarings adds its own rounding, so the error grows
    with s.  Against 40-digit references the action on a start vector is off
    by up to 7.6e-12 relative to max|y0| on ``paper-5x5`` at t ~ 1800
    (s = 16), and by 1.6e-10 to 4.5e-10 on ``paper-stiff?K=1e+06``.  Raises
    :class:`NumericsError` when t*a or the result overflows.
    """
    a = _as_square(a)
    if not np.isfinite(t) or t < 0:
        raise ValueError("time must be finite and nonnegative")

    with np.errstate(over="ignore"):
        b = t * a
        norm = np.linalg.norm(b, np.inf)
    # t*a that is not finite has norm inf; beyond 2^1022 the scaling 2^s overflows
    if not norm <= 2.0**1022:
        raise NumericsError("matrix exponential overflowed")
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
        b = b / (2.0**s)

    # order-6 diagonal Pade coefficients of exp
    coeffs = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)
    n = b.shape[0]
    powers = [np.eye(n)]
    for _ in range(6):
        powers.append(powers[-1] @ b)
    u = sum(c * p for c, p in zip(coeffs[::2], powers[::2]))
    v = sum(c * p for c, p in zip(coeffs[1::2], powers[1::2]))
    try:
        e = np.linalg.solve(u - v, u + v)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - desk-scale norms
        raise NumericsError(f"exponential Pade solve failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            e = e @ e
    if not np.all(np.isfinite(e)):
        raise NumericsError("matrix exponential overflowed")
    return e


def expm_apply(a, y0, t: float) -> np.ndarray:
    """Action of the matrix exponential: exp(t*a) @ y0.

    Accurate as :func:`expm` is: the error grows with the number of
    squarings, to 7.6e-12 relative on ``paper-5x5`` at t ~ 1800.
    """
    a = _as_square(a)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (a.shape[0],):
        raise ValueError(f"state shape {y0.shape} does not match matrix {a.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("state has non-finite entries")
    out = expm(a, t) @ y0
    if not np.all(np.isfinite(out)):
        raise NumericsError("matrix exponential overflowed")
    return out


def validate_system(a) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Accept a conservative Metzler matrix or raise :class:`ModelError`.

    The class: a Metzler matrix with a negative diagonal entry, whose zero
    eigenvalue has matching algebraic and geometric multiplicity k >= 1,
    whose spectrum lies in the closed left half-plane, and which has a
    linear invariant.  Each test is relative to ``||A||_inf``, and a nonzero
    eigenvalue must be a normal float.  Returns the invariant rows spanning
    ker(A^T), the :func:`nullspace` basis of ker(A) and those eigenvalues.
    """
    a = _as_square(a)
    if np.any(a - np.diag(np.diag(a)) < 0.0):
        raise ModelError("matrix is not Metzler")
    with np.errstate(over="ignore"):
        norm, norm_t = np.linalg.norm(a, np.inf), np.linalg.norm(a, 1)
    if not np.isfinite([norm, norm_t]).all():  # nullspace's rank thresholds would be inf
        raise ModelError("matrix norm overflows: a row or column sum of |A| is not finite")
    vals = eigenvalues(a)
    basis = nullspace(a)
    is_zero = np.abs(vals) <= RANK_TOL * norm
    nonzero = vals[~is_zero]
    if np.any(np.abs(nonzero) < np.finfo(float).tiny):  # 1/|lambda| would overflow
        raise ModelError("matrix is too small: a nonzero eigenvalue is subnormal")
    multiplicities_match = int(np.sum(is_zero)) == len(basis)
    # eigenvalues with tiny positive real part from roundoff still count as nonpositive
    spectrum_nonpositive = bool(np.all(nonzero.real <= RANK_TOL * norm))
    proper_metzler = bool(np.any(np.diag(a) < 0.0))
    if not (basis and multiplicities_match and spectrum_nonpositive and proper_metzler):
        raise ModelError(
            "matrix is outside the conservative Metzler class: "
            f"kernel_dim={len(basis)}, "
            f"multiplicities_match={multiplicities_match}, "
            f"spectrum_nonpositive={spectrum_nonpositive}, "
            f"proper_metzler={proper_metzler}"
        )
    rows = nullspace(a.T)
    if not rows:
        raise ModelError("matrix has no linear invariants (trivial ker(A^T))")
    return np.array(rows), basis, nonzero
