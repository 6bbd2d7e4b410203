"""Bundled reference systems used by tests, examples, and the CLI; each
one's expected verdict is in ``DESCRIPTIONS`` and ``EXPECTED_STABILIZABLE``."""

from __future__ import annotations

import numpy as np

from .systems import StochasticSystem, make_system


def s1() -> StochasticSystem:
    return make_system([[0.0]], [[1.0]], C=[[[0.0]]], D=[[[0.0]]])


def s2() -> StochasticSystem:
    return make_system([[0.0]], [[1.0]], C=[[[1.0]]], D=[[[0.0]]])


def s3() -> StochasticSystem:
    return make_system([[1.0]], [[0.0]], C=[[[0.0]]], D=[[[0.0]]])


def s4() -> StochasticSystem:
    A = [[0.0, 1.0], [0.0, 0.0]]
    B = [[0.0], [1.0]]
    C = [0.3 * np.eye(2)]
    D = [np.zeros((2, 1))]
    return make_system(A, B, C=C, D=D)


def m0(n: int = 1) -> StochasticSystem:
    return make_system(
        np.zeros((n, n)), np.eye(n), C=[np.zeros((n, n))], D=[np.zeros((n, n))]
    )


CORPUS = {"S1": s1, "S2": s2, "S3": s3, "S4": s4, "M0": m0}

# the "description" of each emitted corpus config
DESCRIPTIONS = {
    "S1": "scalar integrator, no noise; stabilizable with P = 1",
    "S2": "scalar with unit state noise; stabilizable with P = (1+sqrt(5))/2",
    "S3": "unstable scalar without control; not stabilizable",
    "S4": "double integrator with mild state noise; stabilizable",
    "M0": "martingale case A=C=0, B=I; optimal constant 1/T at delta=0",
}

# expected equivalence verdict per corpus system (all four coincide)
EXPECTED_STABILIZABLE = {"S1": True, "S2": True, "S3": False, "S4": True, "M0": True}

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0
