"""Time propagation and the matrix-free operators built from it.

Both evolution equations are discretized with the Crank-Nicolson scheme on
the instance's uniform grid.  The control term in the forward solve is
averaged over consecutive nodes, which keeps the forward and backward
discretizations adjoint-consistent: the resulting discrete controllability
Gramian is symmetric positive-semidefinite up to round-off, so conjugate
gradients can be applied to the final-time adjoint system.

Each sweep takes a vector (n,) or a block (n, k) and returns only what its
callers use: the backward sweep the induced control, the forward sweep the
final state.  A control is the array of its values at the nodes
``inst.grid.nodes()``, of shape (n_t + 1, m), or (n_t + 1, m, k) for a
block.  Both sweeps step through one kernel, ``_march``: the forward sweep
with S and each chunk's input terms, the backward sweep with S^T in
reversed time, ``_CHUNK`` steps at a time in one buffer, so a sweep keeps
no trajectory and works in O(_CHUNK * n * k + n_t * m * k) floats.  A
single vector steps through ``ndarray.dot``, the matrix-vector product,
plus ``np.add`` for an input term.  A block of k >= 2 vectors steps as one
matrix product of its (k, n) rows with a C-ordered operand: the backward
sweep's phi_j^T = phi_{j+1}^T S with ``block_propagator``, a C-ordered copy
of S, and the forward sweep's x_{j+1}^T = [x_j^T | v_j] [S^T; G^T] with
``step_operator.T``, so the input slab v_j = (dt/2)(u_j + u_{j+1})^T joins
the step's one product and no step adds it apart (OpenBLAS multiplies a
row block by an F-ordered operand on a slower path: 15.0 against 6.9 us a
step at k = 16, n = 100).  The matrix product groups the sums of each step
otherwise than the matrix-vector product, so a block column can differ
from the same vector swept alone by rounding: no certificate and no basis
vector reads a block's bits, only least-squares fits and the Nystrom
sketch do.  The steps of a chunk run from ``map``, so a step costs little
more than its BLAS call, which reads the whole operand; see
``system._cache_line_array`` for why that starts on a cache line.
"""

import hashlib
from collections import deque

import numpy as np

_CHUNK = 128  # steps whose controls or input terms form one matrix product


def _rows(inst, v, what):
    """The k vectors of a vector (n,) or a block (n, k) as the rows of a (k, n) view."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != inst.n:
        raise ValueError(f"{what} must have shape ({inst.n},) or ({inst.n}, k), got {v.shape}")
    return v.reshape(inst.n, -1).T


def _controls(inst, phi):
    """u = -R^{-1} B* phi for adjoints phi of shape (L, k, n); returns (L, m, k)."""
    L, k = phi.shape[:2]
    u = -inst.solve_R(inst.B_adj @ phi.reshape(L * k, inst.n).T)
    return u.reshape(inst.m, L, k).transpose(1, 0, 2)


def _march(S, operand, rows, n_t, inputs=None):
    """Yield (lo, nodes) for each chunk of the n_t steps from the k vectors
    ``rows`` (k, n): nodes (L + 1, k, n) holds x_lo, ..., x_{lo+L} as rows in
    the one buffer every chunk reuses.

    A single vector steps x_{j+1} = S x_j + g_j, and ``inputs(lo, L)``, if
    given, returns g_lo, ..., g_{lo+L-1} shaped (L, n).  A block of k >= 2
    steps as the one product x_{j+1}^T = [x_j^T | v_j] ``operand`` with the
    C-ordered (n + p, n) operand, and ``inputs(lo, L)`` returns the input
    slabs v_lo, ..., v_{lo+L-1} shaped (L, k, p); without inputs only the
    operand's first n rows are read."""
    k, n = rows.shape
    width = operand.shape[0] if inputs is not None and k > 1 else n
    buf = np.empty((min(_CHUNK, n_t) + 1, k, width))
    buf[0, :, :n] = rows
    if k == 1:
        step = S.dot
        nodes = states = list(buf[:, 0])
    else:
        operand = operand[:width]

        def step(x, out):
            return np.matmul(x, operand, out=out)

        nodes, states = list(buf), list(buf[:, :, :n])
    for lo in range(0, n_t, _CHUNK):
        L = min(lo + _CHUNK, n_t) - lo
        if inputs is not None and k > 1:
            buf[:L, :, n:] = inputs(lo, L)
        # states[j + 1] = step of nodes[j] (a block's slab [x_j | v_j]) for
        # j < L; deque makes map's calls
        steps = map(step, nodes[:L], states[1 : L + 1])
        if inputs is not None and k == 1:
            # zip alternates the calls: each product, then its input term
            steps = zip(steps, map(np.add, states[1 : L + 1], inputs(lo, L), states[1 : L + 1]))
        deque(steps, maxlen=0)
        yield lo, buf[: L + 1, :, :n]
        buf[0] = buf[L]


def solve_adjoint_backward(inst, pT):
    """Control u = -R^{-1} B* phi induced by the adjoint with phi(T) = pT.

    Solves -phi' = A* phi backward with the Crank-Nicolson step
    (I - dt/2 A*) phi_k = (I + dt/2 A*) phi_{k+1}, marching through reversed
    time with the transposed one-step propagator, and returns the control at
    every node, of shape (n_t + 1, m) for a vector pT and (n_t + 1, m, k)
    for a block pT of shape (n, k).
    """
    rows = _rows(inst, pT, "terminal adjoint")
    n_t = inst.grid.n_t
    u = np.empty((n_t + 1, inst.m, rows.shape[0]))
    for lo, phi in _march(inst.step_propagator.T, inst.block_propagator, rows, n_t):
        # phi[j] is the adjoint at node n_t - lo - j
        u[n_t - lo - len(phi) + 1 : n_t - lo + 1] = _controls(inst, phi)[::-1]
    return u if np.ndim(pT) == 2 else u[:, :, 0]


def solve_state_forward(inst, x_init, u=None):
    """Final state x(T) of x' = A x + B u started from x(0) = x_init.

    Crank-Nicolson with the control averaged over consecutive nodes:
    (I - dt/2 A) x_{k+1} = (I + dt/2 A) x_k + dt/2 (B u_k + B u_{k+1}).
    ``u = None`` means zero control.  x_init is a vector of shape (n,) or a
    block of shape (n, k), driven by a control of shape (n_t + 1, m) or
    (n_t + 1, m, k); the result has the shape of x_init.
    """
    rows = _rows(inst, x_init, "initial state")
    k = rows.shape[0]
    n_t = inst.grid.n_t
    inputs = None
    if u is not None:
        if u.shape != (n_t + 1, inst.m) + np.shape(x_init)[1:]:
            raise ValueError("control not aligned with the time grid and the state")
        controls = u.reshape(n_t + 1, inst.m, k)

        def inputs(lo, L):  # the chunk's steps' input terms, as _march takes them
            s = controls[lo : lo + L] + controls[lo + 1 : lo + L + 1]
            if k > 1:  # the slabs dt/2 (u_j + u_{j+1})^T that the step's product maps by G
                s *= 0.5 * inst.grid.dt
                return s.transpose(0, 2, 1)
            # (I - dt/2 A)^{-1} B dt/2 (u_j + u_{j+1})
            g = s[:, :, 0] @ inst.step_input_map.T
            g *= 0.5 * inst.grid.dt
            return g

    for _, xs in _march(inst.step_propagator, inst.step_operator.T, rows, n_t, inputs):
        pass
    x = xs[-1].reshape(k, inst.n)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("state propagation produced non-finite values")
    return x.T if np.ndim(x_init) == 2 else x[0]


def apply_gramian(inst, p):
    """Apply the weighted controllability Gramian, matrix-free.

    p is a vector of shape (n,) or a block of shape (n, k).  One backward
    sweep gives the control u = -R^{-1} B* phi induced by phi(T) = p, one
    forward sweep from zero drives the state with it; the result is -x(T).
    """
    u = solve_adjoint_backward(inst, p)
    return -solve_state_forward(inst, np.zeros(np.shape(p)), u)


def apply_system_operator(inst, p):
    """Apply p -> p + M Gramian(p), the matrix of the final-time adjoint system,
    to a vector of shape (n,) or to each column of a block of shape (n, k)."""
    p = np.asarray(p, dtype=float)
    return p + inst.M @ apply_gramian(inst, p)


def operator_key(inst):
    """Digest under which instances share their system operator p -> p + M Gramian(p).

    Hashes everything ``apply_system_operator`` reads from ``inst``:
    ``grid`` (step count and dt of both sweeps), ``ip.weight`` (inside
    ``B_adj``), ``step_propagator`` (both sweeps), ``step_input_map``
    (forward sweep), ``B_adj`` and ``R`` (``_controls``) and ``M``; a
    block's operands ``step_operator`` and ``block_propagator`` hold the
    same values as the propagator and the input map.  Equal
    keys give bit-identical images, and bit-identical operators
    ``exact_solver.assemble_dense_operator``, which reads the same arrays.
    A 16-byte digest, not the raw bytes, so a key costs no memory.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.array([inst.grid.T, inst.grid.n_t, inst.ip.weight]).tobytes())
    for a in (inst.step_propagator, inst.step_input_map, inst.B_adj, inst.R, inst.M):
        h.update(np.array(a.shape).tobytes())
        h.update(a.tobytes())
    return h.digest()


def rhs_vector(inst):
    """Right-hand side M (x(T) - xT), x the uncontrolled state started from x0."""
    return inst.M @ (solve_state_forward(inst, inst.x0) - inst.xT)


def evaluate_cost(inst, u):
    """Quadratic cost of a control: final-state mismatch plus the energy
    0.5 dt sum_k ubar_k^T R ubar_k of the midpoint averages ubar_k = (u_k +
    u_{k+1}) / 2 that the forward step pairs, so the exact optimum minimizes it."""
    mismatch = solve_state_forward(inst, inst.x0, u) - inst.xT
    tracking = 0.5 * inst.ip.dot(mismatch, inst.M @ mismatch)
    mid = 0.5 * (u[1:] + u[:-1])
    return tracking + 0.5 * inst.grid.dt * float(np.einsum("ki,ij,kj->", mid, inst.R, mid))


def control_norm_dt(u, dt):
    """Discrete time-integrated control norm sqrt(dt * sum_{k>=1} |u_k|^2) of
    a control u with one row per node of a grid of step dt.

    The node at t = 0 is excluded, matching the indexing of the comparison
    norm used for reporting control errors.
    """
    return float(np.sqrt(dt * np.sum(u[1:] ** 2)))

