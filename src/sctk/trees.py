"""Branching discretization of d-dimensional Brownian motion.

A tree of depth K refines the horizon [0, T] into steps of size
dt = T/K.  Every node at depth k < K has the same branch set: b
increment vectors xi_j in R^d with probabilities p_j, matching the
Brownian increment moments exactly,

    sum_j p_j xi_j = 0,      sum_j p_j xi_j,i xi_j,l = dt * delta_il.

Adapted processes are fields with one value per node; terminal variables
live on the leaves.  The forward Euler step and the backward recursion
implemented here are exact algebraic adjoints of each other: expanding
E_t <x_{t+1}, y_{t+1}> - <x_t, y_t> cancels every state term and leaves
dt <u_t, z_t>, so the integration-by-parts identity

    E <x(T; u, x0), y1> - <x0, y(0; y1)> = dt * sum_t E <u_t, z_t>

holds to rounding, not merely to discretization order.  Consequence of
the construction: the martingale coefficients Y_i use the conditional
mean of y_{t+1}, not y_t.

Layout is breadth-first with branch order fixed by the driver's support
order: the children of node i at depth k occupy indices i*b .. i*b+b-1
at depth k+1, and leaf blocks of a subtree are contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .systems import HorizonConfig, StochasticSystem


@dataclass(frozen=True)
class TreeDriver:
    """Per-component one-step increment law.

    support points are in units of sqrt(time) and are scaled by
    sqrt(delta_t) when a tree is built; there are at least two of them,
    and their probabilities are strictly positive and sum to one.  The
    built-in drivers have mean 0 and variance 1, but nothing requires it:
    the recursions of sctk.observability read the law only through
    ``moments``, and the tree sweeps use the support itself.
    """

    kind: str
    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=float))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.support.ndim != 1 or self.support.shape != self.probs.shape:
            raise InvalidConfig("driver support/probs must be matching 1-d arrays")
        if self.support.size < 2:
            raise InvalidConfig("driver needs at least two support points")
        if np.any(self.probs <= 0):
            raise InvalidConfig("driver probabilities must be strictly positive")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise InvalidConfig("driver probabilities must sum to one")

    @property
    def moments(self) -> tuple[float, float]:
        """(mean, var) of the support under probs.

        An increment of a step dt has mean mean sqrt(dt) and variance var dt.
        """
        mean = float(self.probs @ self.support)
        return mean, float(self.probs @ (self.support - mean) ** 2)

    @classmethod
    def bernoulli(cls) -> "TreeDriver":
        return cls("bernoulli", np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

    @classmethod
    def trinomial(cls) -> "TreeDriver":
        s = np.sqrt(3.0)
        return cls(
            "trinomial",
            np.array([-s, 0.0, s]),
            np.array([1.0, 4.0, 1.0]) / 6.0,
        )

    @classmethod
    def quantized_gaussian(cls, levels: int = 3) -> "TreeDriver":
        """Gauss-Hermite quantization with the given number of levels (>= 3)."""
        if levels < 3:
            raise InvalidConfig("quantized_gaussian needs at least 3 levels")
        nodes, weights = np.polynomial.hermite.hermgauss(levels)
        probs = weights / weights.sum()
        support = nodes * np.sqrt(2.0)
        # exact moment repair against quadrature rounding
        support = support - support @ probs
        support = support / np.sqrt((support**2) @ probs)
        return cls(f"quantized_gaussian({levels})", support, probs)

    @classmethod
    def from_name(cls, name: str, gh_levels: int = 3) -> "TreeDriver":
        if name == "bernoulli":
            return cls.bernoulli()
        if name == "trinomial":
            return cls.trinomial()
        if name == "quantized_gaussian":
            return cls.quantized_gaussian(gh_levels)
        raise InvalidConfig(f"unknown driver {name!r}")


class AdaptedField:
    """Node-indexed values up to some depth: values[k] has shape (b^k, dim)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = [np.atleast_2d(np.asarray(v, dtype=float)) for v in values]

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    @property
    def dim(self) -> int:
        return self.values[0].shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    @classmethod
    def zeros(cls, tree: "NoiseTree", dim: int, depth: int) -> "AdaptedField":
        return cls([np.zeros((tree.b**k, dim)) for k in range(depth + 1)])


@dataclass(frozen=True)
class NoiseTree:
    """Depth-K branching tree with b = (support size)^d branches per node."""

    K: int
    delta_t: float
    d: int
    driver: TreeDriver
    branch_increments: np.ndarray = field(repr=False)  # (b, d), scaled
    branch_probs: np.ndarray = field(repr=False)  # (b,)

    @property
    def b(self) -> int:
        return self.branch_probs.shape[0]

    @property
    def T(self) -> float:
        return self.K * self.delta_t

    @property
    def leaf_count(self) -> int:
        return self.b**self.K

    @property
    def node_count(self) -> int:
        return (self.b ** (self.K + 1) - 1) // (self.b - 1)

    def depth_probs(self, k: int) -> np.ndarray:
        """Path probabilities of all nodes at depth k, in layout order."""
        p = np.ones(1)
        for _ in range(k):
            p = (p[:, None] * self.branch_probs[None, :]).ravel()
        return p

    @property
    def leaf_probs(self) -> np.ndarray:
        return self.depth_probs(self.K)

    def parent_index(self, idx):
        return np.asarray(idx) // self.b

    def child_index(self, idx, branch):
        return np.asarray(idx) * self.b + branch

    def node_offset(self, k: int) -> int:
        """Global breadth-first index of the first node at depth k."""
        return (self.b**k - 1) // (self.b - 1)


def build_tree(driver: TreeDriver, horizon: HorizonConfig, d: int) -> NoiseTree:
    """Materialize the branch template for a d-dimensional driver.

    The branch set is the cartesian product of the scalar support across
    components, component 0 varying slowest.  Nothing leaf-sized is
    allocated here; only the per-node sweeps below scale with leaf_count.
    """
    if d < 1:
        raise InvalidConfig(f"noise dimension must be >= 1, got {d}")
    s = driver.support.shape[0]
    b = s**d
    dt = horizon.delta_t
    multi = np.unravel_index(np.arange(b), (s,) * d)
    increments = np.stack(
        [driver.support[multi[i]] * np.sqrt(dt) for i in range(d)], axis=1
    )
    probs = np.ones(b)
    for i in range(d):
        probs = probs * driver.probs[multi[i]]
    return NoiseTree(
        K=horizon.K,
        delta_t=dt,
        d=d,
        driver=driver,
        branch_increments=increments,
        branch_probs=probs,
    )


def _sweep(tree: NoiseTree, sys: StochasticSystem, x0, control):
    """Forward Euler sweep; control(k, x_k) gives the depth-k controls or None.

    Euler step per branch:
    x_child = x + dt (A x + B u) + sum_i (C_i x + D_i u) xi_i(child).
    Returns the state layers and the control layers.
    """
    if sys.d != tree.d:
        raise InvalidConfig(f"system d={sys.d} != tree d={tree.d}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dt = tree.delta_t
    xi = tree.branch_increments  # (b, d)
    layers = [np.tile(x0, (1, 1))]
    controls = []
    for k in range(tree.K):
        xk = layers[k]
        uk = control(k, xk)
        controls.append(uk)
        drift = xk + dt * (xk @ sys.A.T)
        if uk is not None:
            drift = drift + dt * (uk @ sys.B.T)
        # diffusion loadings per noise component, shape (d, nodes, n)
        G = np.stack(
            [
                xk @ Ci.T + (uk @ Di.T if uk is not None else 0.0)
                for Ci, Di in zip(sys.C, sys.D)
            ],
            axis=0,
        )
        child = drift[:, None, :] + np.einsum("dpn,jd->pjn", G, xi)
        layers.append(child.reshape(-1, sys.n))
    return layers, controls


def simulate_forward(
    tree: NoiseTree, sys: StochasticSystem, x0, u: AdaptedField | None = None
) -> AdaptedField:
    """State field under the open-loop control u (None means u = 0)."""
    layers, _ = _sweep(
        tree, sys, x0, lambda k, xk: None if u is None else u.values[k]
    )
    return AdaptedField(layers)


def simulate_feedback(
    tree: NoiseTree, sys: StochasticSystem, x0, gains
) -> tuple[AdaptedField, AdaptedField]:
    """State and control fields under the feedback u_k = gains[k] x_k.

    gains has shape (K, m, n): one gain per depth, shared by its nodes.
    """
    layers, controls = _sweep(tree, sys, x0, lambda k, xk: xk @ gains[k].T)
    return AdaptedField(layers), AdaptedField(controls)


@dataclass(frozen=True)
class BackwardSolution:
    """Adapted triple (y, Y_1..Y_d, z) of the backward recursion."""

    y: AdaptedField
    Y: tuple
    z: AdaptedField
    y0: np.ndarray

    def check_recursion(self, tree: NoiseTree, sys: StochasticSystem) -> float:
        """Max deviation of the one-step recursion over internal nodes."""
        worst = 0.0
        for k in range(tree.K):
            yk1 = self.y.values[k + 1].reshape(tree.b**k, tree.b, sys.n)
            m1 = np.einsum("pjn,j->pn", yk1, tree.branch_probs)
            rec = m1 + tree.delta_t * (m1 @ sys.A)
            for i in range(sys.d):
                rec = rec + tree.delta_t * (self.Y[i].values[k] @ sys.C[i])
            worst = max(worst, float(np.abs(rec - self.y.values[k]).max()))
        return worst


def solve_bsde(tree: NoiseTree, sys: StochasticSystem, y1) -> BackwardSolution:
    """Backward sweep that is the exact adjoint of ``simulate_forward``.

    At each internal node with child values y_{t+1,j}:

        m1  = sum_j p_j y_{t+1,j}
        Y_i = (1/dt) sum_j p_j xi_i(j) y_{t+1,j}
        y   = m1 + dt (A^T m1 + sum_i C_i^T Y_i)
        z   = B^T m1 + sum_i D_i^T Y_i
    """
    if sys.d != tree.d:
        raise InvalidConfig(f"system d={sys.d} != tree d={tree.d}")
    y1 = np.atleast_2d(np.asarray(y1, dtype=float))
    if y1.shape != (tree.leaf_count, sys.n):
        raise InvalidConfig(
            f"terminal variable shape {y1.shape} != ({tree.leaf_count}, {sys.n})"
        )
    if not np.all(np.isfinite(y1)):
        raise InvalidConfig("terminal variable has non-finite entries")
    dt = tree.delta_t
    p = tree.branch_probs
    xi = tree.branch_increments
    y_layers = [None] * (tree.K + 1)
    Y_layers = [[None] * tree.K for _ in range(sys.d)]
    z_layers = [None] * tree.K
    y_layers[tree.K] = y1
    for k in range(tree.K - 1, -1, -1):
        yk1 = y_layers[k + 1].reshape(-1, tree.b, sys.n)
        m1 = np.einsum("pjn,j->pn", yk1, p)
        Yk = np.einsum("pjn,jd->dpn", yk1, p[:, None] * xi) / dt
        yk = m1 + dt * (m1 @ sys.A)
        zk = m1 @ sys.B
        for i in range(sys.d):
            yk = yk + dt * (Yk[i] @ sys.C[i])
            zk = zk + Yk[i] @ sys.D[i]
            Y_layers[i][k] = Yk[i]
        y_layers[k] = yk
        z_layers[k] = zk
    return BackwardSolution(
        y=AdaptedField(y_layers),
        Y=tuple(AdaptedField(Y_layers[i]) for i in range(sys.d)),
        z=AdaptedField(z_layers),
        y0=y_layers[0][0].copy(),
    )


def terminal_expectation_sq(tree: NoiseTree, leaf_values) -> float:
    """E |xi|^2 of a terminal variable."""
    v = np.atleast_2d(np.asarray(leaf_values, dtype=float))
    return float(tree.leaf_probs @ np.einsum("ln,ln->l", v, v))


def terminal_inner(tree: NoiseTree, a, b) -> float:
    """E <a, b> of two terminal variables."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return float(tree.leaf_probs @ np.einsum("ln,ln->l", a, b))


def control_energy(tree: NoiseTree, u: AdaptedField) -> float:
    """||u||^2 = dt * sum_t E |u_t|^2 over the internal depths."""
    return control_pairing(tree, u, u)


def control_pairing(tree: NoiseTree, u: AdaptedField, v: AdaptedField) -> float:
    """<u, v> = dt * sum_t E <u_t, v_t> over the internal depths."""
    total = 0.0
    for k in range(tree.K):
        total += float(
            tree.depth_probs(k)
            @ np.einsum("pm,pm->p", u.values[k], v.values[k])
        )
    return tree.delta_t * total


def duality_residual(
    tree: NoiseTree,
    sys: StochasticSystem,
    u: AdaptedField | None,
    x0,
    y1,
) -> float:
    """| E<x_T, y1> - <x0, y0> - dt sum_t E<u_t, z_t> |; zero to rounding."""
    x = simulate_forward(tree, sys, x0, u)
    bw = solve_bsde(tree, sys, y1)
    lhs = terminal_inner(tree, x.terminal, bw.y.values[-1])
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    pairing = float(x0 @ bw.y0)
    cross = 0.0 if u is None else control_pairing(tree, u, bw.z)
    return abs(lhs - pairing - cross)


def field_to_rows(tree: NoiseTree, f: AdaptedField) -> np.ndarray:
    """Flatten a field to rows (node index, depth, value...) in layout order."""
    rows = []
    for k, vals in enumerate(f.values):
        idx = tree.node_offset(k) + np.arange(vals.shape[0])
        rows.append(
            np.column_stack([idx, np.full(vals.shape[0], k), vals])
        )
    return np.vstack(rows)

