"""Branching discretization of d-dimensional Brownian motion.

A tree of depth K refines the horizon [0, T] into steps of size
dt = T/K.  Every node at depth k < K has the same branch set: b
increment vectors xi_j in R^d with probabilities p_j, matching the
Brownian increment moments exactly,

    sum_j p_j xi_j = 0,      sum_j p_j xi_j,i xi_j,l = dt * delta_il.

A tree holds only its definition (K, dt, d and the driver); the branch
template of b rows is built on demand, and only the sweeps here read it,
once per call.  A field (an adapted process) is a plain list of
per-depth arrays, layer k of shape (b^k, dim); terminal variables live on
the leaves.  The forward Euler step and the backward recursion
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

from dataclasses import dataclass
from itertools import islice

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
        if not (np.all(np.isfinite(self.support)) and np.all(np.isfinite(self.probs))):
            raise InvalidConfig("driver support and probabilities must be finite")
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
        # from 371 levels the weights overflow to NaN, which __post_init__
        # rejects; the errstate keeps that to one InvalidConfig
        with np.errstate(all="ignore"):
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


@dataclass(frozen=True)
class NoiseTree:
    """Depth-K branching tree with b = s^d branches per node, for a driver
    of s support points.

    Only the definition is stored.  The branch template, b increment
    vectors and their probabilities, is built on each access to
    branch_increments or branch_probs; the branch set is the cartesian
    product of the scalar support across components, component 0 varying
    slowest.
    """

    K: int
    delta_t: float
    d: int
    driver: TreeDriver

    @property
    def b(self) -> int:
        return self.driver.support.size**self.d

    def _branch_index(self) -> tuple:
        """Per component, the support index of each of the b branches."""
        s = self.driver.support.size
        return np.unravel_index(np.arange(self.b), (s,) * self.d)

    @property
    def branch_increments(self) -> np.ndarray:
        """(b, d) increments, the support scaled by sqrt(delta_t)."""
        multi, support = self._branch_index(), self.driver.support
        return np.stack(
            [support[multi[i]] * np.sqrt(self.delta_t) for i in range(self.d)], axis=1
        )

    @property
    def branch_probs(self) -> np.ndarray:
        """(b,) branch probabilities, products of the component probs."""
        multi = self._branch_index()
        probs = np.ones(self.b)
        for i in range(self.d):
            probs = probs * self.driver.probs[multi[i]]
        return probs

    @property
    def T(self) -> float:
        return self.K * self.delta_t

    @property
    def leaf_count(self) -> int:
        return self.b**self.K

    @property
    def node_count(self) -> int:
        return (self.b ** (self.K + 1) - 1) // (self.b - 1)

    def _path_probs(self):
        """Path probabilities of the nodes at depth 0, 1, 2, ..., one array
        per depth in layout order; the template is read once."""
        branch = self.branch_probs
        p = np.ones(1)
        while True:
            yield p
            p = (p[:, None] * branch[None, :]).ravel()

    def depth_probs(self, k: int) -> np.ndarray:
        """Path probabilities of all nodes at depth k, in layout order."""
        return next(islice(self._path_probs(), k, None))

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
    """The depth-K tree of a d-dimensional driver on the horizon.

    Nothing of size b is allocated here: the branch template is built
    only by the sweeps below, and only they scale with leaf_count.
    """
    if d < 1:
        raise InvalidConfig(f"noise dimension must be >= 1, got {d}")
    return NoiseTree(K=horizon.K, delta_t=horizon.delta_t, d=d, driver=driver)


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


def _as_field(f) -> list:
    """A field given from outside as a list of per-depth (b^k, dim) arrays."""
    return [np.atleast_2d(np.asarray(v, dtype=float)) for v in f]


def simulate_forward(tree: NoiseTree, sys: StochasticSystem, x0, u=None) -> list:
    """State field under the open-loop control field u (None means u = 0)."""
    u = None if u is None else _as_field(u)
    layers, _ = _sweep(tree, sys, x0, lambda k, xk: None if u is None else u[k])
    return layers


def simulate_feedback(tree: NoiseTree, sys: StochasticSystem, x0, gains):
    """State and control fields under the feedback u_k = gains[k] x_k.

    gains has shape (K, m, n): one gain per depth, shared by its nodes.
    """
    return _sweep(tree, sys, x0, lambda k, xk: xk @ gains[k].T)


@dataclass(frozen=True)
class BackwardSolution:
    """Adapted triple (y, Y_1..Y_d, z) of the backward recursion, each a field."""

    y: list
    Y: tuple
    z: list
    y0: np.ndarray

    def check_recursion(self, tree: NoiseTree, sys: StochasticSystem) -> float:
        """Max deviation of the one-step recursion over internal nodes."""
        p = tree.branch_probs
        worst = 0.0
        for k in range(tree.K):
            yk1 = self.y[k + 1].reshape(tree.b**k, tree.b, sys.n)
            m1 = np.einsum("pjn,j->pn", yk1, p)
            rec = m1 + tree.delta_t * (m1 @ sys.A)
            for i in range(sys.d):
                rec = rec + tree.delta_t * (self.Y[i][k] @ sys.C[i])
            worst = max(worst, float(np.abs(rec - self.y[k]).max()))
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
        y=y_layers, Y=tuple(Y_layers), z=z_layers, y0=y_layers[0][0].copy()
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


def control_energy(tree: NoiseTree, u) -> float:
    """||u||^2 = dt * sum_t E |u_t|^2 over the internal depths."""
    return control_pairing(tree, u, u)


def control_pairing(tree: NoiseTree, u, v) -> float:
    """<u, v> = dt * sum_t E <u_t, v_t> over the internal depths."""
    u, v = _as_field(u), _as_field(v)
    total = 0.0
    for k, p in zip(range(tree.K), tree._path_probs()):
        total += float(p @ np.einsum("pm,pm->p", u[k], v[k]))
    return tree.delta_t * total


def duality_residual(
    tree: NoiseTree,
    sys: StochasticSystem,
    u,
    x0,
    y1,
) -> float:
    """| E<x_T, y1> - <x0, y0> - dt sum_t E<u_t, z_t> |; zero to rounding."""
    x = simulate_forward(tree, sys, x0, u)
    bw = solve_bsde(tree, sys, y1)
    lhs = terminal_inner(tree, x[-1], bw.y[-1])
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    pairing = float(x0 @ bw.y0)
    cross = 0.0 if u is None else control_pairing(tree, u, bw.z)
    return abs(lhs - pairing - cross)


def field_to_rows(tree: NoiseTree, f) -> np.ndarray:
    """Flatten a field to rows (node index, depth, value...) in layout order."""
    rows = []
    for k, vals in enumerate(f):
        idx = tree.node_offset(k) + np.arange(vals.shape[0])
        rows.append(
            np.column_stack([idx, np.full(vals.shape[0], k), vals])
        )
    return np.vstack(rows)

