"""Affine relation systems among the index probabilities, and the catalog
of analytically known values.

For the three symmetric families the probabilities satisfy p_k = p_{n-k},
total mass 1, and (for even n) a parity relation: the even-index
probabilities sum to 1/2 for the continuous families and to
(2/pi) arctan(sqrt((m+1)/m)) for order n = 2m difference equations.  These
relations parametrize the whole vector as p = design . q + offset with q
the lowest-index undetermined probabilities, which is the form the
least-squares refinement consumes.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .models import ModelFamily
from .montecarlo import ProbabilityVector

# Elimination pivots and consistency checks; relation coefficients are small
# integers, so anything below this is a true zero.
_RREF_EPS = 1e-9

# Distinct (family, pinned set) systems kept per process; a repair adds at
# most n + 1 pin sets to its family's unpinned one.
_SYSTEMS_KEPT = 256


class InconsistentConstraints(ValueError):
    """The relation set (typically after pinning entries to zero) admits no
    probability vector."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Affine parametrization p = design . q + offset of the probability
    vector by its free entries q = p[free].  The sample-independent state
    below is computed on first use and kept with the system."""

    family: ModelFamily
    free: tuple
    design: np.ndarray
    offset: np.ndarray
    pinned: tuple = ()

    @property
    def n(self) -> int:
        return self.family.n

    @cached_property
    def gram(self) -> np.ndarray:
        """design^T design, read-only.  Raises ValueError, on every access,
        when it is rank deficient."""
        gram = self.design.T @ self.design
        if np.linalg.matrix_rank(gram) < gram.shape[0]:
            raise ValueError("design matrix is rank deficient")
        gram.flags.writeable = False
        return gram

    @cached_property
    def hat_squared(self) -> np.ndarray:
        """Elementwise square of the hat matrix H = design gram^-1 design^T,
        which maps observed frequencies to refined ones; read-only."""
        hat = self.design @ np.linalg.solve(self.gram, self.design.T)
        out = hat**2
        out.flags.writeable = False
        return out

    @cached_property
    def relations(self) -> tuple:
        """Human-readable form of each row, mirroring how reports display the
        relations column (free entries show as just "p_k")."""
        out = []
        for idx in range(self.n + 1):
            if idx in self.free:
                out.append(f"p{idx}")
                continue
            terms = []
            if abs(self.offset[idx]) > 1e-15 or not self.design[idx].any():
                terms.append(f"{self.offset[idx]:.5f}".rstrip("0").rstrip("."))
            for pos, f in enumerate(self.free):
                c = self.design[idx, pos]
                if c == 0.0:
                    continue
                mag = abs(c)
                coef = "" if mag == 1.0 else (f"{mag:g}*")
                if not terms:
                    terms.append(f"{'-' if c < 0 else ''}{coef}p{f}")
                else:
                    terms.append(f"{'-' if c < 0 else '+'} {coef}p{f}")
            out.append(f"p{idx} = " + " ".join(terms))
        return tuple(out)


def half_plane_sign_prob(sigma: float, rho: float) -> float:
    """P(U^2 > V^2) for independent centred normals with standard deviations
    sigma and rho: (2/pi) arctan(sigma/rho)."""
    if sigma <= 0 or rho <= 0:
        raise ValueError("sigma and rho must be positive")
    return 2.0 / math.pi * math.atan(sigma / rho)


def even_parity_sum(family: ModelFamily) -> float | None:
    """Value of sum over even k of p_k when it is constrained, else None.

    Continuous families: 1/2 for even n (automatic for odd n).  Difference
    equations of even order n = 2m: (2/pi) arctan(sqrt((m+1)/m)).  The
    discrete matrix pencil family has no such relation.
    """
    if not family.symmetric:
        return None
    if family.n % 2 == 1:
        return None  # implied by symmetry
    if family.kind == "disc-eq":
        m = family.n // 2
        return half_plane_sign_prob(math.sqrt(m + 1.0), math.sqrt(float(m)))
    return 0.5


def _relation_rows(family: ModelFamily, pinned=()):
    n = family.n
    rows, rhs = [], []
    if family.symmetric:
        for k in range((n + 1) // 2):
            row = np.zeros(n + 1)
            row[k] += 1.0
            row[n - k] -= 1.0
            rows.append(row)
            rhs.append(0.0)
    rows.append(np.ones(n + 1))
    rhs.append(1.0)
    sigma = even_parity_sum(family)
    if sigma is not None:
        row = np.zeros(n + 1)
        row[0::2] = 1.0
        rows.append(row)
        rhs.append(sigma)
    for j in pinned:
        row = np.zeros(n + 1)
        row[j] = 1.0
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def build_constraints(family: ModelFamily, pinned=()) -> ConstraintSystem:
    """Parametrize the family's relation set, optionally with entries pinned
    to zero.

    Gauss-Jordan elimination with pivot columns taken highest index first,
    which leaves the lowest-index undetermined probabilities as the free
    vector.  disc-sys carries only the total-mass relation, so it has nothing
    to refine (see ModelFamily.symmetric).  Raises InconsistentConstraints
    when pinning contradicts the relations.

    Equal families with equal pin sets, in any container, order or with
    repeats, get one shared system: it is frozen and its arrays read-only.
    """
    n = family.n
    pinned = tuple(sorted(set(int(j) for j in pinned)))
    for j in pinned:
        if not 0 <= j <= n:
            raise ValueError(f"pinned index {j} out of range")
    return _build_system(family, pinned)


@lru_cache(maxsize=_SYSTEMS_KEPT)
def _build_system(family: ModelFamily, pinned: tuple) -> ConstraintSystem:
    """build_constraints after its pins are normalized and range-checked.
    A raise is not cached, so an inconsistent pin set raises on every call."""
    n = family.n
    a, b = _relation_rows(family, pinned)
    nrows = a.shape[0]
    used = np.zeros(nrows, dtype=bool)
    pivot_row = {}
    for col in range(n, -1, -1):
        candidates = [
            i for i in range(nrows) if not used[i] and abs(a[i, col]) > _RREF_EPS
        ]
        if not candidates:
            continue
        piv = max(candidates, key=lambda i: abs(a[i, col]))
        used[piv] = True
        pivot_row[col] = piv
        scale = a[piv, col]
        a[piv] /= scale
        b[piv] /= scale
        for i in range(nrows):
            if i != piv and a[i, col] != 0.0:
                f = a[i, col]
                a[i] -= f * a[piv]
                b[i] -= f * b[piv]
    for i in range(nrows):
        if not used[i] and abs(b[i]) > _RREF_EPS:
            raise InconsistentConstraints(
                f"relations for {family} with pinned={pinned} are contradictory"
            )
    free = tuple(col for col in range(n + 1) if col not in pivot_row)
    k = len(free)
    design = np.zeros((n + 1, k))
    offset = np.zeros(n + 1)
    col_of = {f: i for i, f in enumerate(free)}
    for idx in range(n + 1):
        if idx in col_of:
            design[idx, col_of[idx]] = 1.0
        else:
            r = pivot_row[idx]
            offset[idx] = b[r]
            for f in free:
                design[idx, col_of[f]] = -a[r, f]
    design[design == 0.0] = 0.0  # normalize -0.0 for stable serialization
    offset[offset == 0.0] = 0.0
    design.flags.writeable = False
    offset.flags.writeable = False
    return ConstraintSystem(family, free, design, offset, pinned)


def relation_strings(cs: ConstraintSystem) -> list:
    """Human-readable form of each row (see ConstraintSystem.relations), as a
    new list on every call."""
    return list(cs.relations)


def exact_probabilities(family: ModelFamily) -> ProbabilityVector:
    """All analytically known entries of the index distribution, NaN where
    no closed form exists.  Entries fixed by the relations alone (zero free
    dependence) are included."""
    n = family.n
    entries = {}
    if family.kind in ("cont-sys", "cont-eq"):
        if n == 1:
            entries = {0: 0.5, 1: 0.5}
        elif n == 2:
            entries = {0: 0.25, 1: 0.5, 2: 0.25}
        elif n == 3 and family.kind == "cont-eq":
            entries = {0: 1 / 16, 1: 7 / 16, 2: 7 / 16, 3: 1 / 16}
    elif family.kind == "disc-sys":
        if n == 1:
            entries = {0: 0.5, 1: 0.5}
    else:  # disc-eq
        if n == 1:
            entries = {0: 0.5, 1: 0.5}
        elif n == 2:
            p0 = math.atan(math.sqrt(2.0)) / math.pi
            p1 = 2.0 * math.atan(1.0 / math.sqrt(2.0)) / math.pi
            entries = {0: p0, 1: p1, 2: p0}
        elif n == 4:
            side = math.atan(math.sqrt(2.0 / 3.0)) / math.pi
            entries = {1: side, 3: side}
    values = np.full(n + 1, math.nan)
    for k, v in entries.items():
        values[k] = v
    return ProbabilityVector(values, np.zeros(n + 1), "exact")
