"""Semi-discrete Bellman operator with artificial viscosity.

The per-policy linear operator at an interior node x is

    (L_a u)(x) = lam*u(x) - c(x, a) - f(x, a) . grad_h u(x) - N*h*lap_h u(x)

with centered differences, and the scheme operator is F_h[u] = sup_a L_a u.
The supremum is attained pointwise by the greedy control a*(u), the clip of
-grad_h u onto the control box, so F_h[u] = L_{a*(u)} u: bellman_residual
computes L_alpha u for a given policy and F_h[u] without one, reading c and
f from the sampled GridProblem either way.  Collecting stencil weights,

    L_a u = (lam + 2*d*N/h) u(x) - c(x, a)
            + sum_i (-N/h - f_i/(2h)) u(x + h e_i)
            + sum_i (-N/h + f_i/(2h)) u(x - h e_i),

so every neighbor weight is nonpositive exactly when N >= |f_i|/2, the
monotonicity condition enforced throughout (each benchmark builder sets N
to meet it).  Dividing by the center weight gives the resolvent map T_a, a
contraction with factor beta = (2*d*N/h) / (lam + 2*d*N/h)
(SchemeParams.contraction_factor), and F_h[u] = (lam + 2*d*N/h)(u - T u),
where T u = T_{a*(u)} u, which resolvent_map computes.

A GridProblem is the discrete problem: a control problem, its grid and its
scheme parameters, checked for consistency, with the state cost and drift
sampled on the interior nodes when it is built; every sample must be
finite.  write_stencil is the one place the neighbor weights above are
formed and their signs checked, from operands its caller prepares:
stencil_coefficients for any drift, and an evaluation workspace once per
run.  The weights come per axis, (plus, minus), the layout the evaluation
system holds, and the center weight is SchemeParams.center_weight.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridField, Record, interior_gradient, interior_laplacian, _shifted
from .problems import ControlProblem, PolicyField, greedy_policy, policy_cost_and_drift

__all__ = [
    "SchemeParams",
    "GridProblem",
    "StencilCertificate",
    "MonotonicityError",
    "stencil_coefficients",
    "write_stencil",
    "bellman_residual",
    "resolvent_map",
    "certify_monotone_stencil",
]

# Assembly checks each row's dominance margin against lam up to a rounding
# slack of DOMINANCE_RTOL * center weight, so a lam at or below that slack
# cannot be told apart from a margin of 0.
DOMINANCE_RTOL = 1e-12

_CERTIFY_SEED, _CERTIFY_CHUNK = 20240, 128  # control sample seed, controls per batch


class MonotonicityError(ValueError):
    """A stencil weight or assembled off-diagonal has the wrong sign."""


class SchemeParams(Record):
    """Discretization parameters: viscosity coefficient N, spacing h, dim, lam.

    Refuses a lam at or below DOMINANCE_RTOL times the center weight
    lam + 2*dim*N/h: there the discount is lost in the rounding of the
    center weight, and no solve could be certified.
    """

    _fields = ("viscosity", "h", "dim", "lam")

    def __init__(self, viscosity: float, h: float, dim: int, lam: float) -> None:
        super().__init__(viscosity, h, dim, lam)
        for name in ("viscosity", "h", "lam"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.lam > DOMINANCE_RTOL * self.center_weight:
            raise ValueError(
                f"lam={self.lam} is lost in the rounding of the center weight "
                f"lam + 2*dim*N/h = {self.center_weight:.6g} (N={self.viscosity}, "
                f"h={self.h}); lam must exceed {DOMINANCE_RTOL:g} times that weight"
            )

    @property
    def center_weight(self) -> float:
        return self.lam + 2.0 * self.dim * self.viscosity / self.h

    @property
    def contraction_factor(self) -> float:
        """beta = (2*d*N/h) / (lam + 2*d*N/h), the resolvent contraction factor."""
        r = 2.0 * self.dim * self.viscosity / self.h
        return r / (self.lam + r)


class GridProblem(Record):
    """A control problem on one grid with one set of scheme parameters.

    Construction checks that the three agree on dim, h and lam, then
    samples the state cost and drift on the interior nodes, kept read-only
    as state_cost (shape grid.interior_shape) and drift_base (shape
    grid.interior_shape + (dim,)), so a run calls the problem's callables
    once however many policies it evaluates.  A sample with a NaN or
    infinite entry raises ValueError naming it, so no GridProblem holds one.
    """

    _fields = ("problem", "grid", "params")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, problem: ControlProblem, grid: Grid, params: SchemeParams) -> None:
        super().__init__(problem, grid, params)
        if not self.params.dim == self.grid.dim == self.problem.dim:
            raise ValueError("params, grid, and problem dimensions disagree")
        if self.params.h != self.grid.h:
            raise ValueError(f"params.h={self.params.h} does not match grid.h={self.grid.h}")
        if self.params.lam != self.problem.lam:
            raise ValueError(
                f"params.lam={self.params.lam} does not match problem.lam={self.problem.lam}"
            )
        coords = self.grid.interior_coordinates()
        for name in ("state_cost", "drift_base"):
            values = np.array(getattr(self.problem, name)(coords), dtype=float)
            if not np.logical_and.reduce(np.isfinite(values), None):
                raise ValueError(f"{name} must be finite at every interior node")
            values.flags.writeable = False  # shared by every later call
            object.__setattr__(self, name, values)


class StencilCertificate(Record):
    """Result of a sampled monotonicity certification."""

    _fields = ("max_neighbor_coefficient", "max_row_sum_deviation", "nodes_checked",
               "controls_checked")

    def __init__(self, max_neighbor_coefficient: float, max_row_sum_deviation: float,
                 nodes_checked: int, controls_checked: int) -> None:
        super().__init__(max_neighbor_coefficient, max_row_sum_deviation, nodes_checked,
                         controls_checked)


def stencil_coefficients(
    params: SchemeParams, f: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Neighbor weights (plus, minus) for drift values f of shape (..., dim):
    per axis i, plus[i] = -N/h - f_i/(2h) on u(x + h e_i) and minus[i] =
    -N/h + f_i/(2h) on u(x - h e_i), new arrays of shape f.shape[:-1].
    Raises MonotonicityError (from write_stencil) if one is positive beyond
    rounding or not a number, i.e. if the viscosity does not dominate
    |f_i|/2 somewhere."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (params.dim,):
        raise ValueError(f"f has shape {f.shape}, expected (..., {params.dim})")
    plus, minus = (tuple(np.empty(f.shape[:-1]) for _ in range(params.dim)) for _ in range(2))
    axes = tuple(zip((f[..., k] for k in range(params.dim)), plus, minus))
    write_stencil(f, axes, -(params.viscosity / params.h), 2.0 * params.h, params.viscosity, None)
    return plus, minus


def write_stencil(f: np.ndarray, axes: tuple, neg_ratio: float, two_h: float,
                  viscosity: float, scratch: np.ndarray | None) -> None:
    """The weights of stencil_coefficients into axes, one (f_i, plus_i,
    minus_i) per axis, from neg_ratio = -N/h and two_h = 2h; scratch, if
    given, takes |f|.  Raises MonotonicityError if a weight is positive
    beyond rounding or not a number (a NaN drift)."""
    for f_i, plus_i, minus_i in axes:
        # f_i / (2h) goes through plus_i, which is overwritten last
        half = np.divide(f_i, two_h, plus_i)
        np.add(neg_ratio, half, minus_i)
        np.subtract(neg_ratio, half, plus_i)
    # The largest weight, from one reduction: the larger of -ratio - x and
    # -ratio + x is -ratio + |x|, and rounding is monotone and sign-symmetric,
    # so this is the largest weight bit for bit.
    biggest = float(np.maximum.reduce(np.abs(f, scratch), None))
    worst = neg_ratio + biggest / two_h
    if not worst <= 1e-12 * max(1.0, -neg_ratio):  # also nan
        if not math.isfinite(biggest):
            raise MonotonicityError(f"drift is not finite: max |f| = {biggest}")
        raise MonotonicityError(
            f"positive neighbor weight {worst:.3e}: viscosity {viscosity} "
            f"does not dominate |f|/2 = {biggest / 2.0:.6g}"
        )


def _policy_terms(
    problem: ControlProblem,
    params: SchemeParams,
    field: GridField,
    policy: PolicyField | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grad_h u, c_alpha, f_alpha) at the interior nodes of u = field, with
    c and f read from the sampled GridProblem.  Without a policy, alpha is
    the greedy control of grad_h u."""
    gp = GridProblem(problem, grid := field.grid, params)
    g = interior_gradient(field)
    if policy is None:
        policy = PolicyField(grid, greedy_policy(problem, g), problem.a_max)
    c, f = policy_cost_and_drift(gp.state_cost, gp.drift_base, policy.controls)
    return g, c, f


def bellman_residual(
    problem: ControlProblem,
    params: SchemeParams,
    field: GridField,
    policy: PolicyField | None = None,
) -> GridField:
    """L_alpha u for the given policy, else F_h[u] = L_{a*(u)} u.

    Interior nodes carry lam*u - c - f . grad_h u - N*h*lap_h u at the
    policy's controls, or at the greedy control of grad_h u when no policy
    is given; boundary entries are 0.
    """
    grid = field.grid
    g, c, f = _policy_terms(problem, params, field, policy)
    lap = interior_laplacian(field)
    out = np.zeros(grid.shape)
    # lam*u + H - N*h*lap_h u, with the Hamiltonian term H = -c - f.g at the
    # control summed first: this order fixes the rounding of F_h's values
    out[(slice(1, -1),) * grid.dim] = (
        params.lam * field.interior()
        + (-c - np.sum(f * g, axis=-1))
        - params.viscosity * grid.h * lap
    )
    return GridField(grid, out)


def resolvent_map(problem: ControlProblem, params: SchemeParams, field: GridField) -> GridField:
    """One sweep of the damped fixed-point map T.

    At interior nodes, with T_a the map of one control a,

        T_a u = [ c(x, a) + sum_i (N/h + f_i/(2h)) u(x + h e_i)
                            + sum_i (N/h - f_i/(2h)) u(x - h e_i) ]
                / (lam + 2*d*N/h),

    T u = T_{a*(u)} u at the greedy control a*(u) of grad_h u, the exact
    minimizer over controls, so T u = inf_a T_a u.  Boundary values pass
    through unchanged, making Dirichlet data invariant under iteration of
    the map.
    """
    grid = field.grid
    _, c, f = _policy_terms(problem, params, field, None)
    plus, minus = stencil_coefficients(params, f)
    num = c.copy()
    for k in range(grid.dim):
        num -= plus[k] * _shifted(field.values, k, +1, grid.dim)
        num -= minus[k] * _shifted(field.values, k, -1, grid.dim)
    out = field.values.copy()
    out[(slice(1, -1),) * grid.dim] = num / params.center_weight
    return GridField(grid, out)


def certify_monotone_stencil(
    problem: ControlProblem,
    grid: Grid,
    params: SchemeParams,
    n_controls: int = 10000,
) -> StencilCertificate:
    """Sampled certification of stencil monotonicity over nodes x controls.

    Draws n_controls controls uniformly from the box (fixed seed, corners
    always included), forms the stencil at every interior node for each, and
    checks that all neighbor weights are nonpositive and that center plus
    neighbor weights reproduce lam to rounding.  Raises MonotonicityError on
    failure.
    """
    gp = GridProblem(problem, grid, params)
    rng = np.random.default_rng(_CERTIFY_SEED)
    controls = rng.uniform(-problem.a_max, problem.a_max, size=(n_controls, grid.dim))
    corners = np.array(
        np.meshgrid(*[[-problem.a_max, problem.a_max]] * grid.dim, indexing="ij")
    ).reshape(grid.dim, -1).T
    controls = np.concatenate([controls, corners], axis=0)

    b = gp.drift_base.reshape(-1, grid.dim)
    worst = -np.inf
    rowdev = 0.0
    for start in range(0, controls.shape[0], _CERTIFY_CHUNK):
        a = controls[start : start + _CERTIFY_CHUNK]
        plus, minus = stencil_coefficients(params, b[None, :, :] + a[:, None, :])
        worst = max(worst, *(float(w.max()) for w in plus + minus))
        # Adding the axes in order gives np.sum(..., axis=-1) bit for bit,
        # without numpy's slow reduction over a last axis of length dim.
        neighbors = sum(p + m for p, m in zip(plus, minus))
        rowsum = params.center_weight + neighbors
        rowdev = max(rowdev, float(np.max(np.abs(rowsum - params.lam))))
    return StencilCertificate(
        max_neighbor_coefficient=worst,
        max_row_sum_deviation=rowdev,
        nodes_checked=b.shape[0],
        controls_checked=controls.shape[0],
    )
