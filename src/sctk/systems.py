"""Constant-coefficient stochastic control systems.

A system is the tuple (A, B, {C_i}, {D_i}) driving

    dx = (A x + B u) dt + sum_i (C_i x + D_i u) dw_i,

with state dimension n, control dimension m and noise dimension d.  The
dual observation system is the same data read transposed: the backward
state equation uses A^T, C_i^T and the output map uses B^T, D_i^T.
``StochasticSystem.maps`` is the one layout of the coefficients over
[x; u]: the Euler step maps, the Riccati operator and both second-moment
lifts read them from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, NumericalFailure


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    return a


@dataclass(frozen=True)
class StochasticSystem:
    """Constant coefficients (A, B, C, D) with declared dimensions (n, m, d).

    Matrices are stored as given; use ``validate_system`` for a diagnostic
    report or ``checked()`` to raise on inconsistency.
    """

    n: int
    m: int
    d: int
    A: np.ndarray
    B: np.ndarray
    C: tuple = field(default=())
    D: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A))
        object.__setattr__(self, "B", _as_matrix(self.B))
        object.__setattr__(self, "C", tuple(_as_matrix(Ci) for Ci in self.C))
        object.__setattr__(self, "D", tuple(_as_matrix(Di) for Di in self.D))

    def checked(self) -> "StochasticSystem":
        violations = validate_system(self)
        if violations:
            raise InvalidConfig("invalid system: " + "; ".join(violations))
        return self

    def with_zero_noise(self) -> "StochasticSystem":
        zC = tuple(np.zeros((self.n, self.n)) for _ in range(self.d))
        zD = tuple(np.zeros((self.n, self.m)) for _ in range(self.d))
        return StochasticSystem(self.n, self.m, self.d, self.A, self.B, zC, zD)

    @property
    def maps(self) -> np.ndarray:
        """The coefficient stack [[A, B], [C_1, D_1], ..., [C_d, D_d]],
        shape (1 + d, n, n + m); a fresh array on every access."""
        maps = np.empty((1 + self.d, self.n, self.n + self.m))
        maps[:, :, : self.n], maps[:, :, self.n :] = (self.A, *self.C), (self.B, *self.D)
        return maps

    @property
    def is_deterministic(self) -> bool:
        return all(not Ci.any() for Ci in self.C) and all(
            not Di.any() for Di in self.D
        )


def make_system(A, B, C=None, D=None) -> StochasticSystem:
    """Build a system inferring (n, m, d) from the matrix shapes."""
    A = _as_matrix(A)
    B = _as_matrix(B)
    n = A.shape[0]
    m = B.shape[1]
    C = [] if C is None else [_as_matrix(Ci) for Ci in C]
    D = [] if D is None else [_as_matrix(Di) for Di in D]
    d = max(len(C), len(D))
    C = C + [np.zeros((n, n)) for _ in range(d - len(C))]
    D = D + [np.zeros((n, m)) for _ in range(d - len(D))]
    return StochasticSystem(n, m, d, A, B, tuple(C), tuple(D)).checked()


@dataclass(frozen=True)
class HorizonConfig:
    """Time horizon T split into K equal steps of size delta_t = T / K."""

    T: float
    K: int

    def __post_init__(self):
        if not (self.T > 0 and np.isfinite(self.T)):
            raise InvalidConfig(f"horizon T must be positive, got {self.T}")
        if not (isinstance(self.K, (int, np.integer)) and self.K > 0):
            raise InvalidConfig(f"step count K must be a positive integer, got {self.K}")

    @property
    def delta_t(self) -> float:
        return self.T / self.K


def validate_system(sys: StochasticSystem) -> list[str]:
    """Return a list of violations; an empty list means the system is valid."""
    out = []
    n, m, d = sys.n, sys.m, sys.d
    if not (n >= 1 and m >= 1 and d >= 0):
        out.append(f"dimensions (n={n}, m={m}, d={d}) must be positive")
        return out
    if sys.A.shape != (n, n):
        out.append(f"A shape {sys.A.shape} != ({n}, {n})")
    if sys.B.shape != (n, m):
        out.append(f"B shape {sys.B.shape} != ({n}, {m})")
    if len(sys.C) != d:
        out.append(f"C list length {len(sys.C)} != d={d}")
    if len(sys.D) != d:
        out.append(f"D list length {len(sys.D)} != d={d}")
    for i, Ci in enumerate(sys.C):
        if Ci.shape != (n, n):
            out.append(f"C[{i}] shape {Ci.shape} != ({n}, {n})")
    for i, Di in enumerate(sys.D):
        if Di.shape != (n, m):
            out.append(f"D[{i}] shape {Di.shape} != ({n}, {m})")
    for name, mat in [("A", sys.A), ("B", sys.B)] + [
        (f"C[{i}]", Ci) for i, Ci in enumerate(sys.C)
    ] + [(f"D[{i}]", Di) for i, Di in enumerate(sys.D)]:
        if not np.all(np.isfinite(mat)):
            out.append(f"non-finite entries in {name}")
    return out


def hautus_stabilizability(A, B, tol: float = 1e-9) -> bool:
    """Rank test for stabilizability of the deterministic pair (A, B).

    True iff [lambda I - A | B] has full numerical row rank for every
    eigenvalue lambda of A with Re lambda >= -tol.  Eigenvalues inside the
    band Re lambda in [-tol, 0) are treated as critical on purpose: the
    underlying condition is over the closed right half-plane and rounding
    must not produce false positives.  Numerical rank uses the threshold
    tol * (largest singular value), which is scale invariant.

    Only meaningful for systems with zero state/control noise.
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise InvalidConfig(f"inconsistent shapes A{A.shape}, B{B.shape}")
    if tol <= 0:
        raise InvalidConfig("tol must be positive")
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigen decomposition failed: {exc}") from exc
    for lam in eigs:
        if lam.real < -tol:
            continue
        M = np.hstack([lam * np.eye(n) - A, B.astype(complex)])
        try:
            sv = np.linalg.svd(M, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"SVD failed at lambda={lam}: {exc}") from exc
        rank = int(np.sum(sv > tol * sv[0])) if sv[0] > 0 else 0
        if rank < n:
            return False
    return True
