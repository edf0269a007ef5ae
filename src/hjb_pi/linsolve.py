"""Policy-evaluation linear systems: structure-aware assembly and solvers.

Assembly moves Dirichlet neighbor terms into the right-hand side, leaving a
strictly diagonally dominant system over interior unknowns (dominance margin
lam, inherited from the monotone stencil).  1D systems are tridiagonal and
solved by Thomas elimination, a sequential recurrence whose loop runs on
Python floats taken once from the arrays, because reading numpy arrays
element by element costs several times the arithmetic.  2D systems keep the
five-point structure and are solved by SOR with red-black sweeps, vectorized
over each colour.  A dense LU path exists purely as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField
from .problems import PolicyField, policy_cost_and_drift
from .scheme import GridProblem, MonotonicityError, stencil_coefficients

__all__ = [
    "TridiagonalSystem",
    "StructuredSystem2D",
    "SolveStats",
    "SolverError",
    "assemble_evaluation_system",
    "solve_tridiagonal",
    "solve_sor",
    "solve_dense_oracle",
    "system_to_dense",
]

DENSE_ORACLE_LIMIT = 2500


class SolverError(RuntimeError):
    """A linear solve failed (zero pivot or non-convergence)."""


@dataclass
class TridiagonalSystem:
    """Rows center*u_i + sup_i*u_{i+1} + sub_i*u_{i-1} = rhs_i over interior
    unknowns; sub[0] and sup[-1] are 0 (boundary terms live in rhs)."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]


@dataclass
class StructuredSystem2D:
    """Five-point rows center*u + xplus*u_E + xminus*u_W + yplus*u_N
    + yminus*u_S = rhs over the (m0, m1) interior block; coefficients that
    would reference boundary nodes are 0 with their contribution in rhs."""

    center: np.ndarray
    xplus: np.ndarray
    xminus: np.ndarray
    yplus: np.ndarray
    yminus: np.ndarray
    rhs: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.center.shape

    @property
    def n(self) -> int:
        return self.center.size


@dataclass
class SolveStats:
    iterations: int
    final_update_norm: float
    converged: bool


def assemble_evaluation_system(gp: GridProblem, policy: PolicyField, boundary: GridField):
    """Assemble L_alpha u = 0 over interior unknowns with Dirichlet data.

    Returns a TridiagonalSystem (1D) or StructuredSystem2D (2D).  The
    stencil's sign check runs on every weight, and dominance margin lam is
    asserted row by row.
    """
    grid, lam = gp.grid, gp.params.lam
    if boundary.grid != grid:
        raise ValueError("boundary field lives on a different grid")
    c, f = policy_cost_and_drift(gp.state_cost, gp.drift_base, policy)
    coeffs = stencil_coefficients(gp.params, f)
    # one contiguous (dim, ...) copy per direction, modified in place below
    plus = np.moveaxis(coeffs.plus, -1, 0).copy()
    minus = np.moveaxis(coeffs.minus, -1, 0).copy()
    center = coeffs.center
    bvals = boundary.values
    rhs = c.copy()

    if grid.dim == 1:
        diag = np.full(grid.nodes_per_axis - 2, center)
        (sup,), (sub,) = plus, minus
        rhs[0] -= sub[0] * bvals[0]
        sub[0] = 0.0
        rhs[-1] -= sup[-1] * bvals[-1]
        sup[-1] = 0.0
        _assert_dominance(diag, np.abs(sub) + np.abs(sup), lam)
        return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)

    xplus, yplus = plus
    xminus, yminus = minus
    # fold boundary neighbors into the right-hand side, then zero the weights
    rhs[0, :] -= xminus[0, :] * bvals[0, 1:-1]
    xminus[0, :] = 0.0
    rhs[-1, :] -= xplus[-1, :] * bvals[-1, 1:-1]
    xplus[-1, :] = 0.0
    rhs[:, 0] -= yminus[:, 0] * bvals[1:-1, 0]
    yminus[:, 0] = 0.0
    rhs[:, -1] -= yplus[:, -1] * bvals[1:-1, -1]
    yplus[:, -1] = 0.0
    diag = np.full(grid.interior_shape, center)
    offsum = np.abs(xplus) + np.abs(xminus) + np.abs(yplus) + np.abs(yminus)
    _assert_dominance(diag, offsum, lam)
    return StructuredSystem2D(
        center=diag, xplus=xplus, xminus=xminus, yplus=yplus, yminus=yminus, rhs=rhs
    )


def _assert_dominance(diag: np.ndarray, offsum: np.ndarray, lam: float) -> None:
    margin = diag - offsum
    if float(margin.min()) < lam - 1e-12 * float(diag.max()):
        raise MonotonicityError(
            f"diagonal dominance margin {float(margin.min()):.6g} fell below {lam}"
        )


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Thomas elimination; sub[0] and sup[-1] are ignored.

    Raises SolverError on a zero pivot (impossible for diagonally dominant
    input, kept as a defensive guard).  The system is not modified.  Each
    step on the Python floats is the same IEEE-754 double operation, in the
    same order, as in an element-wise loop over the arrays, so the result is
    the same bit for bit.
    """
    sub, diag, sup, rhs = (a.tolist() for a in (system.sub, system.diag, system.sup, system.rhs))
    pivot = diag[0]
    if pivot == 0.0:
        raise SolverError("zero pivot in tridiagonal elimination")
    w = sup[0] / pivot
    x = rhs[0] / pivot
    work, out = [w], [x]
    for a, b, c, r in zip(sub[1:], diag[1:], sup[1:], rhs[1:]):
        pivot = b - a * w
        if pivot == 0.0:
            raise SolverError("zero pivot in tridiagonal elimination")
        w = c / pivot
        x = (r - a * x) / pivot
        work.append(w)
        out.append(x)
    # back substitution; x holds the last unknown
    for i in range(len(out) - 2, -1, -1):
        x = out[i] - work[i] * x
        out[i] = x
    return np.array(out)


def solve_sor(
    system: StructuredSystem2D,
    omega: float = 1.7,
    tol: float = 1e-10,
    max_iter: int = 5000,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """SOR with red-black sweeps; stops on the max-norm of the update.

    A sweep updates every node of one checkerboard colour at once from the
    other colour's values, then every node of the other colour.  The stopping
    rule is the same as for any sweep order: the largest absolute update of
    a sweep is at most tol.  Neither the system nor `initial` is modified.
    The returned stats report the sweep count and last update norm; callers
    decide whether a non-converged result is fatal.
    """
    if not 0.0 < omega < 2.0:
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    m0, m1 = system.shape
    # Padding the unknowns with a zero ring to an odd row width makes a
    # node's colour the parity of its flat index p, and all four of its
    # neighbours (p +- 1, p +- width) have the other colour.  Each colour is
    # stored contiguously, flat position p = 2q + c as entry q of colour c,
    # so the neighbour p + d is entry q + (2c + d - 1) // 2 of the other
    # colour.  Ring nodes have zero coefficients and rhs, so they stay 0.
    width = m1 + 2 if m1 % 2 else m1 + 3
    rows = m0 + 2 if m0 % 2 == 0 else m0 + 3  # even, so the colours split evenly
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.shape != (m0, m1):
            raise ValueError(f"initial guess shape {initial.shape}, expected {(m0, m1)}")
    padded = np.zeros((rows, width))
    inner = padded[1 : m0 + 1, 1 : m1 + 1]

    def split(block: np.ndarray) -> np.ndarray:
        """Fill the inner block, return its (2, rows * width / 2) colour rows."""
        inner[:] = block
        return padded.reshape(-1, 2).T.copy()

    # E, W, N, S coefficients and rhs, scaled by omega / center
    scale = omega / system.center
    layers = [
        split(scale * a)
        for a in (system.xplus, system.xminus, system.yplus, system.yminus, system.rhs)
    ]
    values = split(0.0 if initial is None else initial)
    colours = []
    for c in (0, 1):
        # entries of colour c in rows 1..m0
        lo, hi = (width - c + 1) // 2, ((m0 + 1) * width - c + 1) // 2
        shifts = [(2 * c + d - 1) // 2 for d in (width, -width, 1, -1)]
        neighbours = [values[1 - c, lo + k : hi + k] for k in shifts]
        *weights, rhs = (layer[c, lo:hi] for layer in layers)
        delta, term = np.empty((2, hi - lo))
        colours.append((values[c, lo:hi], neighbours, weights, rhs, delta, term))
    update = np.inf
    iters = 0
    for iters in range(1, max_iter + 1):
        update = 0.0
        for node, neighbours, weights, rhs, delta, term in colours:
            # delta = omega * (rhs - offdiag . u) / center - omega * u
            np.multiply(node, omega, out=delta)
            for a, v in zip(weights, neighbours):
                np.multiply(a, v, out=term)
                delta += term
            np.subtract(rhs, delta, out=delta)
            node += delta
            update = np.maximum(update, np.abs(delta, out=delta).max())
        if not np.isfinite(update):
            raise SolverError(f"SOR diverged after {iters} sweeps")
        if update <= tol:
            break
    converged = update <= tol
    u = values.T.reshape(rows, width)
    return u[1 : m0 + 1, 1 : m1 + 1].copy(), SolveStats(
        iterations=iters, final_update_norm=float(update), converged=bool(converged)
    )


def system_to_dense(system) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b) for either system type; test/oracle use only."""
    if isinstance(system, TridiagonalSystem):
        n = system.n
        a = np.diag(system.diag)
        a += np.diag(system.sub[1:], -1)
        a += np.diag(system.sup[:-1], 1)
        return a, system.rhs.copy()
    if isinstance(system, StructuredSystem2D):
        m0, m1 = system.shape
        n = m0 * m1
        a = np.zeros((n, n))
        b = system.rhs.reshape(-1).copy()
        for i in range(m0):
            for j in range(m1):
                row = i * m1 + j
                a[row, row] = system.center[i, j]
                if i + 1 < m0:
                    a[row, row + m1] = system.xplus[i, j]
                if i > 0:
                    a[row, row - m1] = system.xminus[i, j]
                if j + 1 < m1:
                    a[row, row + 1] = system.yplus[i, j]
                if j > 0:
                    a[row, row - 1] = system.yminus[i, j]
        return a, b
    raise TypeError(f"unsupported system type {type(system).__name__}")


def solve_dense_oracle(system) -> np.ndarray:
    """LAPACK dense solve of the same system; reference path for tests."""
    if system.n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_ORACLE_LIMIT} unknowns")
    a, b = system_to_dense(system)
    x = np.linalg.solve(a, b)
    if isinstance(system, StructuredSystem2D):
        return x.reshape(system.shape)
    return x
