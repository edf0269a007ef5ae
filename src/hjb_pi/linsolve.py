"""Policy-evaluation linear systems: structure-aware assembly and solvers.

One interior system type, EvaluationSystem, serves both dimensions.
Assembly folds the Dirichlet neighbor terms into the right-hand side, axis
by axis, leaving a strictly diagonally dominant system, whose dominance
margin lam (up to rounding) the stencil's sign check guarantees, in an
EvaluationWorkspace: the one handle of an evaluation problem, which binds
the GridProblem, its boundary data and its solver layout once and keeps
every operand no policy changes.  1D systems are tridiagonal.  They are
halved by odd-even (cyclic) reduction, 14 whole-array steps (16 on the
first level, which also forms the margins) and later 5 back-substitution
steps per level, until at most REDUCTION_THRESHOLD unknowns remain; Thomas
elimination solves the rest, a sequential recurrence whose loop runs on
Python floats taken once from the arrays, because reading numpy arrays
element by element costs several times the arithmetic.  A 1D workspace
assembles into its ReductionLayout's top rows, which the first level reads
with the couplings' own signs, so its solve copies nothing in, and checks
no pivot: the sign check that its assembly passed makes every pivot
positive (see solve_tridiagonal).  Any other system is copied in, and each
level checks its pivots before dividing by them.  2D systems are solved
by SOR with red-black sweeps, vectorized over each colour.  A 2D workspace
assembles into its RedBlackLayout's block, its weights and rhs as one
contiguous array, which a load scales in one multiply, by a 0-d omega /
center, into a padded staging, beside the start, and splits by colour in
one copy, and an unload writes each colour back into every other entry of
the padded values; a layout copies any other system into its block first
and scales it by omega over each node's center.  Each solver's buffers and
views, ReductionLayout and RedBlackLayout, are set up once per system
shape, by the workspace in a run, and serve every solve; a layout that
holds its workspace's system refuses any other.  A SOR sweep is one flat
list of numpy calls built with its layout, on fixed views and with omega in
a 0-d array; both colours' updates go into one shared buffer, so the
stopping test is one reduction per sweep.  A dense LU path exists purely as
a test oracle.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .grid import GridField, Record
from .problems import PolicyField, policy_cost_and_drift
from .scheme import GridProblem, write_stencil

__all__ = [
    "EvaluationSystem",
    "EvaluationWorkspace",
    "RedBlackLayout",
    "ReductionLayout",
    "SolveStats",
    "SolverError",
    "assemble_evaluation_system",
    "solve_tridiagonal",
    "solve_sor",
    "solve_dense_oracle",
    "system_to_dense",
]

DENSE_ORACLE_LIMIT = 2500

# solve_tridiagonal halves a system by odd-even reduction while it has more
# unknowns than this, then hands it to the Thomas loop.  One reduction level
# costs about as much as Thomas on 30-60 rows; on the 599-unknown lq1d
# systems the solve time is flat from 38 to 149 (Thomas on 38 or 75 rows).
REDUCTION_THRESHOLD = 64

# SOR has diverged once an update norm reaches this multiple of its least
# one; healthy run2d solves (h = 0.1 to 0.025) rise at most 2.06-fold.
DIVERGENCE_FACTOR = 1e3


class SolverError(RuntimeError):
    """A linear solve failed (zero pivot or non-convergence)."""


class EvaluationSystem:
    """Rows center*u + sum_k (plus[k]*u(x + h e_k) + minus[k]*u(x - h e_k))
    = rhs, every array of the interior shape; weights that would reference
    a boundary node are 0 with their contribution in rhs."""

    def __init__(self, center: np.ndarray, plus: tuple[np.ndarray, ...],
                 minus: tuple[np.ndarray, ...], rhs: np.ndarray) -> None:
        self.center = center
        self.plus = plus
        self.minus = minus
        self.rhs = rhs

    @property
    def shape(self) -> tuple[int, ...]:
        return self.center.shape

    @property
    def n(self) -> int:
        return self.center.size


class SolveStats(Record):
    """One solve, which met its tolerance: its sweeps (1 for a direct
    solve) and tol, the update tolerance it was asked to reach (in a run,
    the schedule's value; 0.0 for a direct solve, which is exact)."""

    _fields = ("iterations", "tol")

    def __init__(self, iterations: int, tol: float) -> None:
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "tol", tol)


# Per dimension and axis: the index of the interior rows on the low face, of
# the boundary nodes they couple to, and the same two for the high face.
# Built once: forming them on every call costs about 4 us, a fifth of a 1D
# assembly of 599 unknowns.
_FACES = {
    dim: [
        [tuple(end if j == k else part for j in range(dim))
         for end in (0, -1) for part in (slice(None), slice(1, -1))]
        for k in range(dim)
    ]
    for dim in (1, 2)
}


class EvaluationWorkspace:
    """The one handle of an evaluation problem: a GridProblem, its
    Dirichlet data `boundary`, refused with ValueError unless it lies on
    the problem's grid, and `layout`, the solver layout of the interior
    shape (ReductionLayout in 1D, RedBlackLayout in 2D), bound once; a run
    builds one.  It keeps what no policy changes: the sampled cost and
    drift, -N/h and 2h, each axis's drift and weight views, each face's
    rows and boundary values, and the system's center, written once (in
    2D, then read-only).  In 1D, when the layout has a level, the
    system is its top rows, with -0.0 for the folded weights.  In 2D it is
    the layout's block: E, W, N, S (plus[0], minus[0], plus[1], minus[1])
    and rhs as one contiguous (5, m0, m1) array, whose four faces fold in
    one gather, multiply, ordered np.subtract.at and scatter.  A system
    taken from it is valid until the next assembly.
    """

    def __init__(self, gp: GridProblem, boundary: GridField) -> None:
        grid = gp.grid
        if boundary.grid is not grid and boundary.grid != grid:
            raise ValueError("boundary field lives on a different grid")
        params, shape, dim = gp.params, grid.interior_shape, grid.dim
        self.gp, self.boundary = gp, boundary
        self.cost, self.drift_base = gp.state_cost, gp.drift_base
        self.layout = ReductionLayout(shape[0]) if dim == 1 else RedBlackLayout(shape)
        bvals = boundary.values
        if dim == 2:
            east, west, north, south, rhs = self.layout._block
            system = self.layout.system = EvaluationSystem(
                np.empty(shape), (east, north), (west, south), rhs)
        elif self.layout._levels:
            diag, lower, upper, rhs, _ = self.layout._top
            system = self.layout.system = EvaluationSystem(diag, (upper,), (lower,), rhs)
        else:
            system = EvaluationSystem(np.empty(shape), (np.empty(shape),), (np.empty(shape),),
                                      np.empty(shape))
        self.system = system
        system.center[...] = params.center_weight
        if dim == 2:
            # the layout scales its own system by this one constant, so no
            # caller may change what it stands for
            system.center.flags.writeable = False
            self.layout._center_weight = params.center_weight
        drift = np.empty(shape + (dim,))
        self._cost_drift = (system.rhs, drift)
        axes = tuple(zip((drift[..., k] for k in range(dim)), system.plus, system.minus))
        self._stencil = (drift, axes, -(params.viscosity / params.h), 2.0 * params.h,
                         params.viscosity, np.empty(drift.shape))
        if dim == 1:
            # a folded weight: in the top rows, -0.0, the exact negation of
            # the negated form's zero couplings
            self._zero = -0.0 if self.layout._levels else 0.0
            # the low face (through minus), then the high face (through
            # plus): its row's index, its weights, and its boundary value
            low, low_node, high, high_node = _FACES[1][0]
            self._faces = [(system.minus[0], low, bvals[low_node]),
                           (system.plus[0], high, bvals[high_node])]
            return
        # Every face at once, in the order of folding one face at a time:
        # axis by axis, the low face's weights (W, then S) and the high
        # face's (E, then N), by their index in the flat block, then the rhs
        # rows they fold into and the boundary values they couple to.  A
        # corner row is in two faces and folds its axis-0 face first.
        index, weights, values = np.arange(system.n).reshape(shape), [], []
        for k, (low, low_nodes, high, high_nodes) in enumerate(_FACES[2]):
            # minus[k] is layer 2k + 1 of the block, plus[k] layer 2k
            for face, nodes, layer in ((low, low_nodes, 2 * k + 1), (high, high_nodes, 2 * k)):
                weights.append(index[face] + layer * system.n)
                values.append(bvals[nodes])
        weights = np.concatenate(weights)
        self._fold = (self.layout._block.reshape(-1), weights,
                      weights % system.n + 4 * system.n, np.concatenate(values))

    def assemble(self, controls: np.ndarray) -> EvaluationSystem:
        """Assemble the system of the policy with these controls; see
        assemble_evaluation_system."""
        system = self.system
        # c goes straight into rhs, where the boundary terms fold in below
        policy_cost_and_drift(self.cost, self.drift_base, controls, out=self._cost_drift)
        write_stencil(*self._stencil)
        if len(system.plus) == 1:
            rhs, zero = system.rhs, self._zero
            for weights, rows, values in self._faces:
                rhs[rows] -= weights[rows] * values
                weights[rows] = zero
        else:
            # one gather, multiply, ordered subtraction and scatter
            block, weights, rhs_rows, values = self._fold
            terms = block[weights]
            terms *= values
            np.subtract.at(block, rhs_rows, terms)
            block[weights] = 0.0
        return system


def assemble_evaluation_system(workspace: EvaluationWorkspace,
                               policy: PolicyField) -> EvaluationSystem:
    """Assemble L_alpha u = 0 for `policy` over the interior unknowns, with
    the workspace's Dirichlet data, into its system, which the next
    assembly overwrites: axis by axis, the low face (through minus) and then
    the high face (through plus) fold their boundary terms into rhs and
    their weights to 0.  The stencil's sign check runs on every weight and
    fails on a NaN one; a system it passes has dominance margin lam, up to
    a rounding slack of DOMINANCE_RTOL times the center weight, in every
    row (see scheme.write_stencil).
    A policy on a grid other than the workspace's, even one of the same
    shape, is refused with ValueError.  It is otherwise
    workspace.assemble(policy.controls), a module-level function so that
    assemblies can be wrapped by name, as perfbench's tracer does.
    """
    grid = workspace.gp.grid
    if policy.grid is not grid and policy.grid != grid:
        raise ValueError("policy lives on a different grid")
    return workspace.assemble(policy.controls)


class ReductionLayout:
    """The odd-even reduction levels of one 1D system size, with buffers.

    Level k + 1 is the even rows of level k, until at most
    REDUCTION_THRESHOLD remain.  Rows sit at entries 1..n of arrays with a
    ghost at each end: 1 on the diagonal, 0 in the couplings (like the first
    row's lower and the last row's upper), -0.0 in rhs and margin (+0.0 *
    -0.0 adds exactly nothing, even to a signed zero).  So every even row
    reduces by the same steps, built once as (ufunc, a, b, out) on fixed 1D
    views, which numpy runs faster than stacked 2D calls at these sizes:
    per level, its pivots (the odd rows' diagonal, which solve_tridiagonal
    checks on a system other than the layout's own), their count and its
    reduction steps, then one list of every level's back substitution, in
    solve order.  The solution buffer holds level k's unknowns at every
    2^k-th entry, -0.0 past the end.

    The first level reads the couplings as the system holds them (minus,
    plus), the later levels and Thomas negated (lower, upper): each
    first-level step is the negated form's with the sign folded in, a
    subtraction where that form adds, and its zero couplings (the ghosts',
    the first row's lower, the last row's upper) are -0.0, the negation of
    that form's +0.0, so every step gives the same bits, signed zeros
    included.  An EvaluationWorkspace sets `system` to the top rows and
    assembles into them; a layout without one (None) copies in each system
    it solves, negating the couplings when it has no level.
    """

    def __init__(self, n: int) -> None:
        self.shape, self.system = (n,), None
        sizes = [n]
        while sizes[-1] > REDUCTION_THRESHOLD:
            sizes.append((sizes[-1] + 1) // 2)
        x = np.full(n + (1 << len(sizes) - 1), -0.0)
        rows = self._padded(n)
        if len(sizes) > 1:
            rows[1:3] = -0.0  # the first level's signed zero couplings
        self._top, self._solution = tuple(rows[:, 1 : n + 1]), x[:n]
        self._levels, self._back, top = [], [], self._top
        for k, (n, m) in enumerate(zip(sizes, sizes[1:])):
            (diag, lower, upper, rhs, margin), new = rows, self._padded(m)
            new_diag, new_lower, new_upper, new_rhs, new_margin = new[:, 1 : m + 1]
            alpha, gamma, product = np.empty((3, m))
            # how a product of a coupling enters a sum at this level
            fold = np.subtract if k == 0 else np.add
            # the first level forms the margins, diag + minus + plus
            reduce = [] if k else [(np.add, top[0], top[1], top[4]),
                                   (np.add, top[4], top[2], top[4])]
            # even row 2e adds alpha_e times odd row 2e - 1 and gamma_e times
            # odd row 2e + 1, which cancels both its couplings
            even, below, above = slice(1, 2 * m, 2), slice(0, 2 * m - 1, 2), slice(2, 2 * m + 1, 2)
            reduce += [(np.divide, lower[even], diag[below], alpha),
                       (np.divide, upper[even], diag[above], gamma)]
            for old, sums in ((rhs, new_rhs), (margin, new_margin)):
                reduce += [(np.multiply, alpha, old[below], product),
                           (fold, old[even], product, sums),
                           (np.multiply, gamma, old[above], product),
                           (fold, sums, product, sums)]
            # the new diagonal from its margin, without the cancellation of
            # subtracting the eliminated couplings from the old one
            reduce += [(np.multiply, alpha, lower[below], new_lower),
                       (np.multiply, gamma, upper[above], new_upper),
                       (np.add, new_margin, new_lower, new_diag),
                       (np.add, new_diag, new_upper, new_diag)]
            # each odd unknown from its row and the even unknowns beside it
            odd, n_odd, s = slice(2, n + 1, 2), n // 2, 1 << k
            unknowns, tail = x[s : 2 * s * n_odd : 2 * s], product[:n_odd]
            back = [(np.multiply, lower[odd], x[: 2 * s * n_odd : 2 * s], unknowns),
                    (fold, rhs[odd], unknowns, unknowns),
                    (np.multiply, upper[odd], x[2 * s : 2 * s * (n_odd + 1) : 2 * s], tail),
                    (fold, unknowns, tail, unknowns),
                    (np.divide, unknowns, diag[odd], unknowns)]
            self._levels.append((diag[odd], n_odd, reduce))
            self._back[:0] = back
            rows = new
        (diag, lower, upper, rhs, _), n, s = rows, sizes[-1], 1 << len(sizes) - 1
        self._last, self._lower, self._diag = x[: n * s : s], lower[2 : n + 1], diag[1 : n + 1]
        self._upper, self._rhs = upper[1 : n + 1], rhs[1 : n + 1]

    @staticmethod
    def _padded(n: int) -> np.ndarray:
        """Diagonal, lower, upper, rhs and margin of n rows, with ghosts."""
        rows = np.full((5, n + 2), -0.0)
        rows[0], rows[1:3] = 1.0, 0.0
        return rows


def solve_tridiagonal(system: EvaluationSystem, layout: ReductionLayout | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Odd-even reduction, then Thomas elimination of a 1D system; the
    boundary weights minus[0][0] and plus[0][-1] are ignored.

    While more than REDUCTION_THRESHOLD unknowns remain, each odd row is
    used to eliminate its unknown from the two even rows beside it, leaving
    a tridiagonal system in the even unknowns of half the size (Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 1970).  Thomas elimination solves
    the last system, and each level's odd unknowns then follow from their
    own row, a whole level at once.  Reduction keeps strict diagonal
    dominance and is backward stable on such systems (Heller, SIAM
    J. Numer. Anal. 1976).  The row sums, the dominance margins, combine
    like the right-hand side, and each reduced diagonal is rebuilt as its
    margin plus its negated couplings: on an M-matrix a sum of nonnegative
    terms, where updating the diagonal directly subtracts nearly equal
    numbers.  That keeps the backward error near Thomas's, but
    the rounding differs, so results above the threshold differ from plain
    elimination at rounding level.  A system at or below the threshold takes
    zero levels and is solved bit for bit as by Thomas alone.

    The levels run in `layout`, a ReductionLayout of the system's size,
    built here when not given; reusing one gives the same bits.  The
    layout's own system (an EvaluationWorkspace's) is solved where it lies;
    any other is copied into the layout's rows first, which a layout that
    holds a system refuses with ValueError.  The solution goes into `out`
    when given, else a new array, and is returned.  The system is not
    modified.  Raises SolverError on a zero pivot, leaving `out` as it
    was: for any system but the layout's own, each level's pivots are
    checked before the level divides by them, and the Thomas loop reports
    a division by zero.

    Why the layout's own system, as its workspace assembled it, needs no
    check: every pivot that the reduction and Thomas divide by is
    positive.  (A caller that writes into that system's arrays gives this
    up; solve a copy of it in a layout of its own.)  Let c be the center
    weight, u = 2^-53, and write a row as d x_i + l x_{i-1} + r x_{i+1}.
    The workspace's rows passed write_stencil's sign check, so each has
    the dominance margin d - |l| - |r| >= lam - DOMINANCE_RTOL / 2 *
    (c - lam) less a few u * c of rounding (see write_stencil and
    scheme.DOMINANCE_RTOL), and SchemeParams accepts only lam >
    DOMINANCE_RTOL * c: every margin exceeds mu = DOMINANCE_RTOL / 2 * c -
    10u * c, about 5e-13 * c.

    (i) Exact arithmetic.  Eliminating the odd rows beside even row e
    gives it the diagonal d_e - l_e r_{e-1} / d_{e-1} - r_e l_{e+1} /
    d_{e+1} and the couplings l_e l_{e-1} / d_{e-1} and r_e r_{e+1} /
    d_{e+1}, so its new margin is at least d_e - |l_e| q_{e-1} - |r_e|
    q_{e+1} >= d_e - |l_e| - |r_e|, with q_i = (|l_i| + |r_i|) / d_i < 1
    (Heller): no level's margin falls below mu, and every pivot, a
    diagonal entry, is at least its row's margin.  Thomas's pivots p_i =
    d_i - l_i r_{i-1} / p_{i-1} are then at least |r_i| + mu, by induction
    from p_0 = d_0.

    (ii) Rounding.  The levels carry each row's sum d + l + r (its
    "margin" in the code) and rebuild each reduced diagonal as that sum
    plus the negated couplings.  When no weight is positive, as the stencil
    makes them but for rounding, the row sum is the dominance margin, and
    every sum a level forms after the first level's row sums adds terms of
    one sign; rounding is monotone, so each row sum is at least the first
    level's, which is within 2u * c of exact, each diagonal at least its
    row sum, and Thomas's pivots at least |r_i| + mu / 2.  A weight that
    the sign check let through above 0 (by at most DOMINANCE_RTOL / 2 *
    N/h) mixes the signs.  Then each entry a level forms is a sum of at
    most three terms no larger than 2c (a multiplier times a row is bounded
    by the coupling it cancels), and as each diagonal is rebuilt from its
    row sum, no error is carried into the next level but through the
    entries themselves: a level's dominance margin is at most about
    100u * c below that of the exact reduction of the level above, which
    (i) bounds below.  K levels lose at most 1.1e-14 * K * c, so every
    pivot stays positive up to K = 40 levels, 64 * 2^40 unknowns.  A test
    pins positive pivots at the sign check's edge, with lam just above
    DOMINANCE_RTOL * c.
    """
    layout = ReductionLayout(system.n) if layout is None else layout
    out = np.empty(system.n) if out is None else out
    if system.shape != layout.shape:
        raise ValueError(f"system shape {system.shape}, layout shape {layout.shape}")
    foreign = system is not layout.system
    if foreign:
        if layout.system is not None:
            raise ValueError("the layout holds its workspace's system; solve others in another")
        diag, lower, upper, rhs, _ = layout._top
        diag[...] = system.center
        rhs[...] = system.rhs
        if layout._levels:
            lower[1:] = system.minus[0][1:]
            upper[:-1] = system.plus[0][:-1]
        else:  # Thomas reads the couplings negated
            np.negative(system.minus[0][1:], lower[1:])
            np.negative(system.plus[0][:-1], upper[:-1])
    for odd_diag, n_odd, reduce in layout._levels:
        # the layout's own system has positive pivots (see above)
        if foreign and np.count_nonzero(odd_diag) < n_odd:
            raise SolverError("zero pivot in tridiagonal elimination")
        for ufunc, a, b, result in reduce:
            ufunc(a, b, result)
    layout._last[:] = _thomas(layout._lower, layout._diag, layout._upper, layout._rhs)
    for ufunc, a, b, result in layout._back:
        ufunc(a, b, result)
    out[...] = layout._solution
    return out


def _thomas(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> list:
    """Thomas elimination with the negated couplings of solve_tridiagonal.

    upper has one entry per row; the last row's is never used.  Each step
    on the Python floats is the same IEEE-754 double operation, in the same
    order, as in an element-wise loop over the arrays; negating a coupling
    and flipping the sign of the operation it enters is exact, so the result
    is the same bit for bit as elimination on the weights.  No pivot is
    compared with 0: a Python float division by a zero of either sign
    raises ZeroDivisionError, which the loop turns into SolverError, once,
    before any solution is written.  A pivot of the layout's own system is
    never 0 (see solve_tridiagonal).
    """
    diag, rhs, upper = diag.tolist(), rhs.tolist(), upper.tolist()
    pivot = diag[0]
    try:
        w, x = -upper[0] / pivot, rhs[0] / pivot
        work, out = [w], [x]
        for a, b, c, r in zip(lower.tolist(), diag[1:], upper[1:], rhs[1:]):
            pivot = b + a * w
            w = -c / pivot
            x = (r + a * x) / pivot
            work.append(w)
            out.append(x)
    except ZeroDivisionError:
        raise SolverError("zero pivot in tridiagonal elimination") from None
    # back substitution; x holds the last unknown
    for i in range(len(out) - 2, -1, -1):
        x = out[i] - work[i] * x
        out[i] = x
    return out


def _aligned_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of `shape` starting on a 64-byte (cache-line) boundary, so the
    sweep kernel's speed does not depend on where the allocator puts them."""
    size = math.prod(shape)
    raw = np.zeros(size + 7)  # float64 data is at least 8-byte aligned
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


class RedBlackLayout:
    """The padded red-black layout of one 2D interior shape, with its buffers.

    Padding the unknowns with a zero ring to an odd row width makes a node's
    colour the parity of its flat index p, and all four of its neighbours
    (p +- 1, p +- width) have the other colour.  Each colour is stored
    contiguously, flat position p = 2q + c as entry q of colour c, so the
    neighbour p + d is entry q + (2c + d - 1) // 2 of the other colour.  Ring
    nodes have zero coefficients and rhs, so they stay 0.

    Everything that depends on the shape alone is built once, here: the
    block that holds the system (E, W, N, S and rhs, one contiguous (5, m0,
    m1) array), one padded staging array of the values and of those five
    layers, scaled, the colour split of its six layers, and one sweep as a
    list of (ufunc, a, b, out) steps on views into them, 11 per colour,
    which read omega from a 0-d array.  A layout serves any number of solves
    of its shape, one at a time: `load` writes omega, a system and a start
    into the buffers, `sweep` runs the steps, and `unload` writes the
    solution out.  Nothing carries over from one solve to the next, so the
    one layout of a run's EvaluationWorkspace serves every solve.  That
    workspace assembles into the block and sets `system` to it, with its
    one center weight, written once and read-only; a layout without one
    (None) copies each system it loads into the block, and one with a
    system refuses any other.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        m0, m1 = shape
        self.shape, self.system = (m0, m1), None
        width = m1 + 2 if m1 % 2 else m1 + 3
        rows = m0 + 2 if m0 % 2 == 0 else m0 + 3  # even, so the colours split evenly
        # omega / center: 0-d for the system of a workspace, which sets
        # _center_weight with `system`, and per node for any other
        self._center_weight, self._uniform_scale = None, np.zeros(())
        self._scale = np.empty(self.shape)
        # E, W, N, S and rhs of the system, one contiguous block
        self._block = np.empty((5,) + self.shape)
        # the values, first so that they start on a cache line, and the five
        # scaled by omega / center, padded, then split by colour into rows
        # of rows * width / 2 entries
        self._padded = _aligned_zeros((6, rows, width))
        self._inner = self._padded[0, 1 : m0 + 1, 1 : m1 + 1]
        self._padded_inner = self._padded[1:, 1 : m0 + 1, 1 : m1 + 1]
        self._padded_split = self._padded.reshape(6, -1, 2).transpose(0, 2, 1)
        self._layers = _aligned_zeros(self._padded_split.shape)
        self._values = self._layers[0]
        # the values' padded layer by colour, at unit inner stride: flat
        # position 2q + c is entry q of colour c
        flat = self._padded[0].reshape(-1)
        self._colours = flat[0::2], flat[1::2]
        # entries of colour c in rows 1..m0
        bounds = [((width - c + 1) // 2, ((m0 + 1) * width - c + 1) // 2) for c in (0, 1)]
        sizes = [hi - lo for lo, hi in bounds]
        # both colours' updates share one buffer, so a sweep makes one
        # abs and one max over it
        self._delta = _aligned_zeros((sum(sizes),))
        deltas = self._delta[: sizes[0]], self._delta[sizes[0] :]
        term = _aligned_zeros((max(sizes),))
        # omega as a 0-d array, written by load: numpy takes it faster than
        # a Python float
        self._omega = np.zeros(())
        # one sweep as (ufunc, a, b, out) steps; per colour,
        # delta = omega * (rhs - offdiag . u) / center - omega * u
        self._steps = []
        for c, (lo, hi) in enumerate(bounds):
            node, delta, product = self._values[c, lo:hi], deltas[c], term[: sizes[c]]
            *weights, rhs = (layer[c, lo:hi] for layer in self._layers[1:])
            self._steps.append((np.multiply, node, self._omega, delta))
            for a, d in zip(weights, (width, -width, 1, -1)):
                k = (2 * c + d - 1) // 2
                self._steps += [(np.multiply, a, self._values[1 - c, lo + k : hi + k], product),
                                (np.add, delta, product, delta)]
            self._steps += [(np.subtract, rhs, delta, delta), (np.add, node, delta, node)]

    def load(self, system: EvaluationSystem, omega: float, initial: np.ndarray | None) -> None:
        """Write the system, scaled by omega / center, and the start (0 when
        `initial` is None) into the buffers; neither input is modified.  The
        system is scaled in one multiply of the block.  The layout's own
        system, whose center is one constant, is scaled by a 0-d omega /
        center; any other is copied into the block first and scaled node by
        node, as its center may differ from row to row.  Both give the same
        bits.  A layout that holds a system refuses any other with
        ValueError."""
        if system.shape != self.shape:
            raise ValueError(f"system shape {system.shape}, layout shape {self.shape}")
        if initial is not None:
            initial = np.asarray(initial, dtype=float)
            if initial.shape != self.shape:
                raise ValueError(f"initial guess shape {initial.shape}, expected {self.shape}")
        if system is self.system:
            scale = self._uniform_scale
            scale[()] = omega / self._center_weight
        else:
            if self.system is not None:
                raise ValueError("the layout holds its workspace's system; solve others in another")
            (east, north), (west, south) = system.plus, system.minus
            for layer, a in zip(self._block, (east, west, north, south, system.rhs)):
                layer[...] = a
            scale = np.divide(omega, system.center, out=self._scale)
        np.multiply(self._block, scale, out=self._padded_inner)
        self._inner[...] = 0.0 if initial is None else initial
        self._omega[()] = omega
        self._layers[...] = self._padded_split

    def sweep(self) -> float:
        """One sweep, at the omega of the last load: every node of one
        colour from the other colour's values, then every node of the other
        colour.  Returns the largest absolute update."""
        for ufunc, a, b, out in self._steps:
            ufunc(a, b, out)
        return np.maximum.reduce(np.abs(self._delta, self._delta), None)

    def unload(self, out: np.ndarray) -> None:
        """Write the current values of the unknowns into `out`, through the
        staging array: each colour into every other entry of its padded
        layer, so that numpy's inner loop runs along the colour rather than
        over pairs of colours; after finite sweeps their padding is 0, so
        its ring stays 0."""
        even, odd = self._colours
        even[...] = self._values[0]
        odd[...] = self._values[1]
        out[...] = self._inner


def solve_sor(
    system: EvaluationSystem,
    *,
    omega: float,
    tol: float,
    max_iter: int,
    initial: np.ndarray | None = None,
    layout: RedBlackLayout | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """SOR with red-black sweeps on a 2D system; stops on the max-norm of
    the update.  The settings have no defaults here: a run takes them from
    howard.PIConfig.

    A sweep updates every node of one checkerboard colour at once from the
    other colour's values, then every node of the other colour.  The stopping
    rule is the same as for any sweep order: the largest absolute update of
    a sweep is at most tol.  The sweeps run in `layout`, a RedBlackLayout of
    the system's shape, built here when not given; reusing one across solves
    gives the same results bit for bit, also after a solve that raised.  A
    layout that holds its workspace's system refuses any other with
    ValueError.  The solution is written into `out` when given, else into a
    new array, and returned with its SolveStats.  Neither the system nor
    `initial` is modified.  Raises SolverError on a divergence, as soon as
    an update is not finite or reaches DIVERGENCE_FACTOR times the least
    update of the solve, or on a stall, when max_iter sweeps end with the
    update still above tol; `out` is then left as it was.
    """
    if not 0.0 < omega < 2.0:
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    if layout is None:
        if len(system.shape) != 2:
            raise ValueError(f"solve_sor needs a 2D system, of shape (m0, m1); got shape "
                             f"{system.shape}")
        layout = RedBlackLayout(system.shape)
    layout.load(system, omega, initial)
    sweep, least = layout.sweep, math.inf
    for iters in range(1, max_iter + 1):
        update = sweep()
        if update <= tol:
            break
        if update < least:
            least = update
        elif not update < DIVERGENCE_FACTOR * least:  # also nan and inf
            break
    if not update <= tol:
        raise SolverError(
            f"SOR stalled at update norm {update:.3e} after {iters} sweeps (tolerance {tol:.3e})"
            if update < DIVERGENCE_FACTOR * least else
            f"SOR diverged after {iters} sweeps: update norm {update:.3e}, at least "
            f"{DIVERGENCE_FACTOR:g} times the least update norm {least:.3e} of this solve")
    if out is None:
        out = np.empty(system.shape)
    layout.unload(out)
    return out, SolveStats(iterations=iters, tol=tol)


def system_to_dense(system: EvaluationSystem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b) with the unknowns in row-major order; test/oracle use
    only.  The boundary weights, which are 0 after assembly, are left out."""
    index = np.arange(system.n).reshape(system.shape)
    a = np.diag(system.center.reshape(-1))
    for k in range(len(system.shape)):
        # low: every row not on the high face of axis k; high: its +e_k neighbor
        low = (slice(None),) * k + (slice(None, -1),)
        high = (slice(None),) * k + (slice(1, None),)
        a[index[low], index[high]] = system.plus[k][low]
        a[index[high], index[low]] = system.minus[k][high]
    return a, system.rhs.reshape(-1).copy()


def solve_dense_oracle(system: EvaluationSystem) -> np.ndarray:
    """LAPACK dense solve of the same system; reference path for tests."""
    if system.n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to {DENSE_ORACLE_LIMIT} unknowns")
    a, b = system_to_dense(system)
    return np.linalg.solve(a, b).reshape(system.shape)
