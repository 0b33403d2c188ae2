"""Least-squares refinement of observed frequencies under a constraint
system, with iterative repair of negative entries.
"""

import numpy as np

from .constraints import ConstraintSystem, build_constraints
from .montecarlo import ProbabilityVector


class RepairFailed(RuntimeError):
    """Negative entries survived a repair round that had nothing new to pin;
    carries the last iterate in ``.last``."""

    def __init__(self, last: ProbabilityVector):
        super().__init__("negative entries remain at already pinned indices")
        self.last = last


def _read(ptilde) -> tuple:
    """(values, stderr) of a ProbabilityVector, or of a plain vector with
    zero stderr."""
    if isinstance(ptilde, ProbabilityVector):
        return (
            np.asarray(ptilde.values, dtype=float),
            np.asarray(ptilde.stderr, dtype=float),
        )
    p = np.asarray(ptilde, dtype=float)
    return p, np.zeros(p.shape)


def least_squares_refine(cs: ConstraintSystem, ptilde) -> ProbabilityVector:
    """Project observed frequencies onto the constraint set.

    Solves the normal equations for design . q ~ ptilde - offset and returns
    design . qhat + offset, which satisfies every relation exactly.  ptilde
    may be a ProbabilityVector or a plain vector of length n + 1.

    The standard errors carry only the variances through the projection H:
    se = sqrt(H**2 @ stderr**2).  They drop the multinomial covariance
    -p_i p_j / N between entries, so a refined stderr is not the spread of
    the refined value: against replicate runs it read up to about 2x too
    large for some entries and somewhat too small for others.
    """
    p, stderr = _read(ptilde)
    n1 = cs.design.shape[0]
    if p.shape != (n1,):
        raise ValueError(f"expected a length-{n1} frequency vector")
    if cs.design.shape[1] == 0:  # older numpy's matrix_rank rejects a 0x0 matrix
        phat = cs.offset.copy()
        se = np.zeros(n1)
    else:
        d = cs.design
        qhat = np.linalg.solve(cs.gram, d.T @ (p - cs.offset))
        phat = d @ qhat + cs.offset
        se = np.sqrt(cs.hat_squared @ stderr**2)
    return ProbabilityVector(phat, se, "refined")


def nonneg_repair(cs: ConstraintSystem, ptilde) -> ProbabilityVector:
    """Refine, then repeatedly pin negative entries to exactly zero.

    Each round pins every index whose refined value is negative (and, for
    symmetric families, its mirror), rebuilds the constraint system over the
    remaining free entries and re-solves against the original frequencies.
    The pinned set only grows, so there are at most n + 1 rounds.  Raises
    RepairFailed with the last iterate if a round finds negatives but nothing
    new to pin, and InconsistentConstraints if pinning contradicts the
    relations.
    """
    family = cs.family
    pinned = set(cs.pinned)
    phat = least_squares_refine(cs, ptilde)
    while True:
        negative = np.flatnonzero(phat.values < 0.0)
        if negative.size == 0:
            return phat
        before = len(pinned)
        for j in negative:
            pinned.add(int(j))
            if family.symmetric:
                pinned.add(family.n - int(j))
        if len(pinned) == before:
            raise RepairFailed(phat)
        cs = build_constraints(family, pinned=pinned)
        phat = least_squares_refine(cs, ptilde)
