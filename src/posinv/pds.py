"""Production-destruction system models.

Each model flavour answers for its own arithmetic: ``rhs(y)`` and
``rhs_and_rate_sum(y)`` are methods the step kernels call.
``LinearPds.from_matrix`` has ``linalg.validate_system`` accept a matrix A
once and stores what the integrators and the stability toolkit read: the
invariant rows spanning ker(A^T), a kernel basis, the nonzero eigenvalues and
trace(S-) of the split A = S+ - S- (S- diagonal).  ``GeneralPds`` carries
callables for production terms and destruction *rates* d with
f^[D]_j(y) = d_j(y) * y_j, so the ratio sums stay defined on the boundary of
the positive orthant.

Model files are line-oriented UTF-8 (see :func:`parse_model`); the builtin
registry hard-codes the reference problems with exact integer entries.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import ModelError, NumericsError


@dataclass(frozen=True)
class LinearPds:
    """Linear production-destruction system y' = A y with A conservative Metzler."""

    a: np.ndarray
    invariant_rows: np.ndarray = field(repr=False)
    kernel_basis: list[np.ndarray] = field(repr=False)
    nonzero_eigenvalues: np.ndarray = field(repr=False)
    trace_s_minus: float

    @classmethod
    def from_matrix(cls, a) -> "LinearPds":
        # a copy, so a later write by the caller cannot reach the frozen model
        a = np.array(a, dtype=float)
        a.flags.writeable = False
        rows, basis, lams = linalg.validate_system(a)
        return cls(
            a=a,
            invariant_rows=rows,
            kernel_basis=basis,
            nonzero_eigenvalues=lams,
            trace_s_minus=float(np.maximum(-np.diag(a), 0.0).sum()),
        )

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    def rhs(self, y: np.ndarray) -> np.ndarray:
        # the bits of a @ y (the same gemv) at half its dispatch cost
        return self.a.dot(y)

    def rhs_and_rate_sum(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """(f(y), sum of the destruction rates), the rate sum trace(S-) at every state.

        S- is diagonal, so sum_j (S- y)_j / y_j needs no division.
        """
        return self.a.dot(y), self.trace_s_minus


@dataclass(frozen=True)
class GeneralPds:
    """Nonlinear production-destruction system given by callables.

    ``production`` returns p(y) and ``destruction_rate`` the vector d(y) >= 0
    with f^[D]_j(y) = d_j(y) * y_j; supplying rates instead of raw destruction
    terms makes division by state components unnecessary, so models remain
    evaluable at states with zero components.  ``invariant_rows`` is optional
    and only used for trajectory diagnostics.  Both callables must be
    deterministic functions of the state: ``integrate`` stops stepping once
    a step returns its input bit for bit.
    """

    dimension: int
    production: Callable[[np.ndarray], np.ndarray]
    destruction_rate: Callable[[np.ndarray], np.ndarray]
    invariant_rows: np.ndarray | None = None

    def _rates(self, y: np.ndarray) -> np.ndarray:
        """d(y), which must have shape (dimension,) and be finite and nonnegative."""
        rates = np.asarray(self.destruction_rate(y), dtype=float)
        if rates.shape != (self.dimension,):
            raise ModelError(f"destruction_rate returned shape {rates.shape}")
        if np.any(~np.isfinite(rates)) or np.any(rates < 0.0):
            raise ModelError("destruction rates must be finite and nonnegative")
        return rates

    def rhs(self, y: np.ndarray) -> np.ndarray:
        """Right-hand side f(y) = p(y) - d(y) * y; raises ModelError if not finite."""
        return self._rhs(y, self._rates(y))

    def rhs_and_rate_sum(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """(f(y), sum of the destruction rates), from one evaluation of each callable."""
        rates = self._rates(y)
        return self._rhs(y, rates), float(np.sum(rates))

    def _rhs(self, y: np.ndarray, rates: np.ndarray) -> np.ndarray:
        production = np.asarray(self.production(y), dtype=float)
        if production.shape != (self.dimension,):
            raise ModelError(f"production returned shape {production.shape}")
        f = production - rates * y
        if not np.isfinite(f).all():
            raise ModelError("right-hand side returned non-finite values")
        return f


def steady_state_for(model: LinearPds, y0) -> np.ndarray:
    """The steady state sharing all linear invariants with ``y0``.

    Solves for kernel coordinates c with N K c = N y0 (N the invariant rows,
    K the kernel basis); the solution is unique whenever the invariants
    separate kernel elements, otherwise the invariant system is singular and
    an error is raised.
    """
    y0 = np.asarray(y0, dtype=float)
    k = np.column_stack(model.kernel_basis)
    n = model.invariant_rows
    gram = n @ k
    target = n @ y0
    coeffs, residual, rank, _ = np.linalg.lstsq(gram, target, rcond=None)
    if rank < k.shape[1]:
        raise NumericsError("singular invariant system: kernel not determined by invariants")
    y_star = k @ coeffs
    defect = np.linalg.norm(n @ y_star - target, np.inf)
    if defect > 1e-10 * np.linalg.norm(target, np.inf):
        raise NumericsError(f"steady-state invariant mismatch: defect {defect:.3e}")
    return y_star


@dataclass
class ModelDocument:
    """A model matrix and start state, from a builtin or a model file."""

    matrix: np.ndarray
    y0: np.ndarray
    builtin: str | None = None

    def build(self) -> LinearPds:
        return LinearPds.from_matrix(self.matrix)


def _two_by_two(a: float = 1.0, b: float = 1.0, c: float = 1.0) -> ModelDocument:
    if min(a, b, c) <= 0:
        raise ModelError("parameters a, b, c must be positive")
    m = np.array([[-a * c, b * c], [a, -b]])
    return ModelDocument(matrix=m, y0=np.array([2.0, 1.0]), builtin="paper-2x2")


def _five_by_five() -> ModelDocument:
    m = np.array(
        [
            [-4, 2, 1, 2, 2],
            [1, -4, 1, 0, 2],
            [0, 0, -4, 2, 0],
            [2, 2, 2, -4, 0],
            [1, 0, 0, 0, -4],
        ],
        dtype=float,
    )
    return ModelDocument(matrix=m, y0=np.array([0.0, 3.0, 3.0, 3.0, 4.0]), builtin="paper-5x5")


def _stiff(K: float = 10.0) -> ModelDocument:
    if K <= 0:
        raise ModelError("parameter K must be positive")
    m = np.array([[-K, 0, 0], [K, -1, 0], [0, 1, 0]], dtype=float)
    return ModelDocument(matrix=m, y0=np.array([0.98, 0.01, 0.01]), builtin="paper-stiff")


BUILTIN_MODELS: dict[str, Callable[..., ModelDocument]] = {
    "paper-2x2": _two_by_two,
    "paper-5x5": _five_by_five,
    "paper-stiff": _stiff,
}


def resolve_builtin(address: str) -> ModelDocument:
    """Resolve ``builtin:name?key=value&...`` to a registry model."""
    body = address[len("builtin:"):]
    name, _, query = body.partition("?")
    if name not in BUILTIN_MODELS:
        raise ModelError(f"unknown builtin model {name!r}; known: {sorted(BUILTIN_MODELS)}")
    params = {}
    # no form decoding, which would turn the '+' of K=1e+06 into a space
    for item in query.split("&") if query else ():
        key, _, value = item.partition("=")
        if key in params:
            raise ModelError(f"repeated parameter {key!r} in {address!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise ModelError(f"non-numeric parameter {key}={value!r}") from exc
    try:
        return BUILTIN_MODELS[name](**params)
    except TypeError as exc:
        raise ModelError(f"bad parameters for builtin {name!r}: {exc}") from exc


def parse_model(text: str) -> ModelDocument:
    """Parse a model document.

    Format, one directive per line, ``#`` starts a comment::

        kind linear
        dim N
        matrix
        <N rows of N whitespace-separated reals>
        y0 <N reals>

    Raises :class:`ModelError` with a line number on any syntax problem.
    """
    lines = []  # (source line number, tokens)
    for i, raw in enumerate(io.StringIO(text), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((i, body.split()))
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ModelError(f"unexpected end of input: missing {expect!r}")
        entry = lines[pos]
        pos += 1
        return entry

    def real(token: str, lineno: int) -> float:
        try:
            value = float(token)
        except ValueError as exc:
            raise ModelError(f"line {lineno}: bad number {token!r}") from exc
        if not np.isfinite(value):
            raise ModelError(f"line {lineno}: non-finite literal {token!r}")
        return value

    lineno, tok = take("kind")
    if tok[0] != "kind" or len(tok) != 2:
        raise ModelError(f"line {lineno}: expected 'kind <linear>'")
    if tok[1] != "linear":
        raise ModelError(f"line {lineno}: unsupported kind {tok[1]!r}")

    lineno, tok = take("dim")
    if tok[0] != "dim" or len(tok) != 2:
        raise ModelError(f"line {lineno}: expected 'dim N'")
    try:
        dim = int(tok[1])
    except ValueError as exc:
        raise ModelError(f"line {lineno}: bad dimension {tok[1]!r}") from exc
    if dim < 1:
        raise ModelError(f"line {lineno}: dimension must be >= 1")

    lineno, tok = take("matrix")
    if tok != ["matrix"]:
        raise ModelError(f"line {lineno}: expected 'matrix'")
    rows = []
    for _ in range(dim):
        lineno, tok = take("matrix row")
        if len(tok) != dim:
            raise ModelError(f"line {lineno}: expected {dim} entries, got {len(tok)}")
        rows.append([real(t, lineno) for t in tok])

    lineno, tok = take("y0")
    if tok[0] != "y0" or len(tok) != dim + 1:
        raise ModelError(f"line {lineno}: expected 'y0' followed by {dim} entries")
    y0 = [real(t, lineno) for t in tok[1:]]

    if pos != len(lines):
        raise ModelError(f"line {lines[pos][0]}: trailing content after y0")
    return ModelDocument(matrix=np.array(rows), y0=np.array(y0))


def load_model(source: str) -> ModelDocument:
    """Load a model from a ``builtin:`` address or a model-file path."""
    if source.startswith("builtin:"):
        return resolve_builtin(source)
    try:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or text not UTF-8
        raise ModelError(f"cannot read model file {source!r}: {exc}") from exc
    return parse_model(text)
