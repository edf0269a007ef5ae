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

so every neighbor weight is nonpositive exactly when N >= |f_i|/2, which is
the monotonicity condition enforced throughout.  Dividing by the center
weight gives the resolvent map T_a, a contraction with factor
beta = (2*d*N/h) / (lam + 2*d*N/h) (SchemeParams.contraction_factor), and
F_h[u] = (lam + 2*d*N/h)(u - T u).

A GridProblem is the discrete problem: a control problem, its grid and its
scheme parameters, checked for consistency, with the state cost and drift
sampled once on the interior nodes.  stencil_coefficients is the one place
the weights above are formed and their signs checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, GridField, interior_gradient, interior_laplacian, _shifted
from .problems import (
    ControlProblem,
    PolicyField,
    greedy_policy,
    grid_drift,
    policy_cost_and_drift,
)

__all__ = [
    "SchemeParams",
    "GridProblem",
    "StencilCoeffs",
    "StencilCertificate",
    "MonotonicityError",
    "viscosity_coefficient",
    "stencil_coefficients",
    "bellman_residual",
    "resolvent_map",
    "certify_monotone_stencil",
]

VISCOSITY_MODES = ("theory", "bench1d", "bench2d")


class MonotonicityError(ValueError):
    """A stencil weight or assembled off-diagonal has the wrong sign."""


@dataclass(frozen=True)
class SchemeParams:
    """Discretization parameters: viscosity coefficient N, spacing h, dim, lam."""

    viscosity: float
    h: float
    dim: int
    lam: float

    def __post_init__(self) -> None:
        for name in ("viscosity", "h", "lam"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")

    @property
    def center_weight(self) -> float:
        return self.lam + 2.0 * self.dim * self.viscosity / self.h

    @property
    def contraction_factor(self) -> float:
        """beta = (2*d*N/h) / (lam + 2*d*N/h), the resolvent contraction factor."""
        r = 2.0 * self.dim * self.viscosity / self.h
        return r / (self.lam + r)


@dataclass(frozen=True, eq=False)
class GridProblem:
    """A control problem on one grid with one set of scheme parameters.

    Construction checks that the three agree on dim, h and lam.  The state
    cost and drift are sampled on the interior nodes at first use and kept
    read-only, so a run calls the problem's callables once however many
    policies it evaluates, and a GridProblem built only for the checks
    samples nothing.
    """

    problem: ControlProblem
    grid: Grid
    params: SchemeParams

    def __post_init__(self) -> None:
        if not self.params.dim == self.grid.dim == self.problem.dim:
            raise ValueError("params, grid, and problem dimensions disagree")
        if self.params.h != self.grid.h:
            raise ValueError(f"params.h={self.params.h} does not match grid.h={self.grid.h}")
        if self.params.lam != self.problem.lam:
            raise ValueError(
                f"params.lam={self.params.lam} does not match problem.lam={self.problem.lam}"
            )

    def _sample(self, fn) -> np.ndarray:
        values = np.array(fn(self.grid.interior_coordinates()), dtype=float)
        values.flags.writeable = False  # shared by every later call
        return values

    @cached_property
    def state_cost(self) -> np.ndarray:
        """state_cost at the interior nodes, shape grid.interior_shape."""
        return self._sample(self.problem.state_cost)

    @cached_property
    def drift_base(self) -> np.ndarray:
        """drift_base at the interior nodes, shape grid.interior_shape + (dim,)."""
        return self._sample(self.problem.drift_base)


@dataclass(frozen=True)
class StencilCoeffs:
    """Monotone stencil weights: the center plus per-axis neighbor weights,
    plus[..., i] on u(x + h e_i) and minus[..., i] on u(x - h e_i)."""

    center: float
    plus: np.ndarray
    minus: np.ndarray


@dataclass(frozen=True)
class StencilCertificate:
    """Result of a sampled monotonicity certification."""

    max_neighbor_coefficient: float
    max_row_sum_deviation: float
    nodes_checked: int
    controls_checked: int


def viscosity_coefficient(problem: ControlProblem, grid: Grid, mode: str) -> float:
    """Artificial viscosity N for the given problem and grid.

    theory   max(1, ||f||_inf / 2) with ||f||_inf estimated over grid nodes
             and control-box corners (|b_i| + a_max per component);
    bench1d  max(1, a_max / 2), the 1D benchmark rule;
    bench2d  1.05 * (||b||_inf + a_max) / 2 with ||b||_inf the grid maximum
             component magnitude of the drift, the 2D benchmark rule.
    """
    if mode == "bench1d":
        return max(1.0, 0.5 * problem.a_max)
    b = grid_drift(problem, grid)
    bmax = float(np.max(np.abs(b)))
    if mode == "bench2d":
        return 1.05 * 0.5 * (bmax + problem.a_max)
    if mode == "theory":
        return max(1.0, 0.5 * (bmax + problem.a_max))
    raise ValueError(f"unknown viscosity mode {mode!r}; expected one of {VISCOSITY_MODES}")


def stencil_coefficients(params: SchemeParams, f: np.ndarray) -> StencilCoeffs:
    """Stencil weights for drift values f of shape (..., dim).

    The neighbor weights -N/h -+ f_i/(2h) have the shape of f.  Raises
    MonotonicityError if any of them is positive beyond rounding, i.e. if
    the viscosity does not dominate |f_i|/2 somewhere.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (params.dim,):
        raise ValueError(f"f has shape {f.shape}, expected (..., {params.dim})")
    ratio = params.viscosity / params.h
    plus = -ratio - f / (2.0 * params.h)
    minus = -ratio + f / (2.0 * params.h)
    worst = max(float(plus.max()), float(minus.max()))
    if worst > 1e-12 * max(1.0, ratio):
        raise MonotonicityError(
            f"positive neighbor weight {worst:.3e}: viscosity {params.viscosity} "
            f"does not dominate |f|/2 = {float(np.max(np.abs(f))) / 2.0:.6g}"
        )
    return StencilCoeffs(center=params.center_weight, plus=plus, minus=minus)


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
        policy = PolicyField(grid, greedy_policy(problem, None, g), problem.a_max)
    c, f = policy_cost_and_drift(gp.state_cost, gp.drift_base, policy)
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


def resolvent_map(
    problem: ControlProblem,
    params: SchemeParams,
    field: GridField,
    policy: PolicyField | None = None,
) -> GridField:
    """One sweep of the damped fixed-point map T (or T_alpha when given).

    At interior nodes,

        T_a u = [ c(x, a) + sum_i (N/h + f_i/(2h)) u(x + h e_i)
                            + sum_i (N/h - f_i/(2h)) u(x - h e_i) ]
                / (lam + 2*d*N/h),

    and without a policy the exact minimizer over controls is used, so the
    result is T u = inf_a T_a u.  Boundary values pass through unchanged,
    making Dirichlet data invariant under iteration of the map.
    """
    grid = field.grid
    _, c, f = _policy_terms(problem, params, field, policy)
    coeffs = stencil_coefficients(params, f)
    num = c.copy()
    for k in range(grid.dim):
        num -= coeffs.plus[..., k] * _shifted(field.values, k, +1, grid.dim)
        num -= coeffs.minus[..., k] * _shifted(field.values, k, -1, grid.dim)
    out = field.values.copy()
    out[(slice(1, -1),) * grid.dim] = num / coeffs.center
    return GridField(grid, out)


def certify_monotone_stencil(
    problem: ControlProblem,
    grid: Grid,
    params: SchemeParams,
    n_controls: int = 10000,
    seed: int = 20240,
    chunk: int = 128,
) -> StencilCertificate:
    """Sampled certification of stencil monotonicity over nodes x controls.

    Draws n_controls controls uniformly from the box (corners always
    included), forms the stencil at every interior node for each, and checks
    that all neighbor weights are nonpositive and that center plus neighbor
    weights reproduce lam to rounding.  Raises MonotonicityError on failure.
    """
    gp = GridProblem(problem, grid, params)
    rng = np.random.default_rng(seed)
    controls = rng.uniform(-problem.a_max, problem.a_max, size=(n_controls, grid.dim))
    corners = np.array(
        np.meshgrid(*[[-problem.a_max, problem.a_max]] * grid.dim, indexing="ij")
    ).reshape(grid.dim, -1).T
    controls = np.concatenate([controls, corners], axis=0)

    b = gp.drift_base.reshape(-1, grid.dim)
    worst = -np.inf
    rowdev = 0.0
    for start in range(0, controls.shape[0], chunk):
        a = controls[start : start + chunk]
        coeffs = stencil_coefficients(params, b[None, :, :] + a[:, None, :])
        worst = max(worst, float(coeffs.plus.max()), float(coeffs.minus.max()))
        # Adding the axes in order gives np.sum(..., axis=-1) bit for bit,
        # without numpy's slow reduction over a last axis of length dim.
        neighbors = sum(coeffs.plus[..., k] + coeffs.minus[..., k] for k in range(grid.dim))
        rowsum = coeffs.center + neighbors
        rowdev = max(rowdev, float(np.max(np.abs(rowsum - params.lam))))
    return StencilCertificate(
        max_neighbor_coefficient=worst,
        max_row_sum_deviation=rowdev,
        nodes_checked=b.shape[0],
        controls_checked=controls.shape[0],
    )
