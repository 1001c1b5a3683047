"""Time propagation and the matrix-free operators built from it.

Both evolution equations are discretized with the Crank-Nicolson scheme on
the instance's uniform grid.  The control term in the forward solve is
averaged over consecutive nodes, which keeps the forward and backward
discretizations adjoint-consistent: the resulting discrete controllability
Gramian is symmetric positive-semidefinite up to round-off, so conjugate
gradients can be applied to the final-time adjoint system.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import trapezoid_quad


@dataclass
class Trajectory:
    """Node-indexed values of a state, adjoint or control over the grid."""

    times: np.ndarray
    values: np.ndarray  # shape (n_nodes, dim)
    kind: str  # "state" | "adjoint" | "control"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("one value row per time node required")
        if self.kind not in ("state", "adjoint", "control"):
            raise ValueError(f"unknown trajectory kind '{self.kind}'")
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError(f"non-finite entries in {self.kind} trajectory")

    @property
    def final(self):
        return self.values[-1]

    @property
    def initial(self):
        return self.values[0]


def solve_adjoint_backward(inst, pT):
    """Solve -phi' = A* phi backward from phi(T) = pT.

    Crank-Nicolson step: (I - dt/2 A*) phi_k = (I + dt/2 A*) phi_{k+1},
    realized through the transposed one-step propagator.
    """
    pT = np.asarray(pT, dtype=float)
    if pT.shape != (inst.n,):
        raise ValueError(f"terminal adjoint must have length {inst.n}")
    n_t = inst.grid.n_t
    S_T = inst.step_propagator_T
    values = np.empty((n_t + 1, inst.n))
    values[n_t] = pT
    for k in range(n_t - 1, -1, -1):
        values[k] = S_T @ values[k + 1]
    return Trajectory(times=inst.grid.nodes(), values=values, kind="adjoint")


def control_from_adjoint(inst, adj):
    """Evaluate u = -R^{-1} B* phi at every node of an adjoint trajectory."""
    if adj.kind != "adjoint":
        raise ValueError("control_from_adjoint expects an adjoint trajectory")
    # B* maps the h-weighted state space into the Euclidean control space
    rhs = inst.B_adj @ adj.values.T  # (m, n_nodes)
    u = -inst.solve_R(rhs)
    return Trajectory(times=adj.times, values=u.T, kind="control")


def solve_state_forward(inst, x_init, u=None):
    """Solve x' = A x + B u forward from x(0) = x_init.

    Crank-Nicolson with the control averaged over consecutive nodes:
    (I - dt/2 A) x_{k+1} = (I + dt/2 A) x_k + dt/2 (B u_k + B u_{k+1}).
    ``u = None`` means zero control.
    """
    x_init = np.asarray(x_init, dtype=float)
    if x_init.shape != (inst.n,):
        raise ValueError(f"initial state must have length {inst.n}")
    n_t = inst.grid.n_t
    S = inst.step_propagator
    values = np.empty((n_t + 1, inst.n))
    values[0] = x_init
    if u is None:
        for k in range(n_t):
            values[k + 1] = S @ values[k]
    else:
        if u.values.shape[0] != n_t + 1:
            raise ValueError("control trajectory not aligned with the time grid")
        # premultiply the node-averaged controls by (I - dt/2 A)^{-1} B once
        g = (0.5 * inst.grid.dt) * (
            inst.step_input_map @ (u.values[:-1] + u.values[1:]).T
        )  # (n, n_t)
        for k in range(n_t):
            values[k + 1] = S @ values[k] + g[:, k]
    if not np.all(np.isfinite(values[-1])):
        raise FloatingPointError("state propagation produced non-finite values")
    return Trajectory(times=inst.grid.nodes(), values=values, kind="state")


def apply_gramian(inst, p):
    """Apply the weighted controllability Gramian to a vector, matrix-free.

    Solves the adjoint equation backward with phi(T) = p, evaluates the
    induced control u = -R^{-1} B* phi, propagates the state forward from
    zero, and returns -x(T).
    """
    adj = solve_adjoint_backward(inst, p)
    u = control_from_adjoint(inst, adj)
    state = solve_state_forward(inst, np.zeros(inst.n), u)
    return -state.final


def apply_system_operator(inst, p):
    """Apply p -> p + M Gramian(p), the matrix of the final-time adjoint system."""
    p = np.asarray(p, dtype=float)
    return p + inst.apply_M(apply_gramian(inst, p))


def rhs_vector(inst):
    """Right-hand side M (x(T) - xT), x the uncontrolled state started from x0."""
    return inst.apply_M(solve_state_forward(inst, inst.x0).final - inst.xT)


def evaluate_cost(inst, u):
    """Quadratic cost of a control: final-state mismatch plus control energy."""
    state = solve_state_forward(inst, inst.x0, u)
    mismatch = state.final - inst.xT
    tracking = 0.5 * inst.ip.dot(mismatch, inst.apply_M(mismatch))
    energies = np.einsum("ki,ij,kj->k", u.values, inst.R, u.values)
    return tracking + 0.5 * trapezoid_quad(energies, inst.grid.dt)


def control_norm_dt(u):
    """Discrete time-integrated control norm sqrt(dt * sum_{k>=1} |u_k|^2).

    The node at t = 0 is excluded, matching the indexing of the comparison
    norm used for reporting control errors.
    """
    if u.kind != "control":
        raise ValueError("control_norm_dt expects a control trajectory")
    dt = float(u.times[1] - u.times[0])
    return float(np.sqrt(dt * np.sum(u.values[1:] ** 2)))


def control_difference(u, v):
    """Trajectory holding the nodewise difference of two controls."""
    if u.values.shape != v.values.shape:
        raise ValueError("control trajectories must share the grid")
    return Trajectory(times=u.times, values=u.values - v.values, kind="control")
