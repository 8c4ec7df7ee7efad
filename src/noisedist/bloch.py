"""Bloch-vector algebra for qubit states, spin observables, and projective
measure-and-prepare instruments.

Every quantity the package computes is a function of inner products of real
3-vectors, so states are represented as Bloch vectors throughout; no complex
2x2 matrices (and hence no global-phase convention) are needed. Spin
observables are +1/-1 valued and labelled by their eigenvalues. `born` is
the Born rule over arrays of such inner products.

All types are immutable values and all operations are pure functions, so
everything here can be shared freely across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _float, _floats

#: Outcome labels in storage order: index 0 holds outcome +1, index 1 holds -1.
OUTCOMES = (1, -1)
_SIGNS = np.array(OUTCOMES, dtype=float)

# Constructors accept unit vectors up to this absolute norm error.
UNIT_ATOL = 1e-12


def _check_outcome(outcome):
    if outcome not in (1, -1):
        raise ValidationError(f"outcome must be +1 or -1, got {outcome!r}")
    return outcome


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector (x, y, z). Pure states lie on the unit sphere, mixed
    states strictly inside; this class itself enforces no length constraint.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _float(getattr(self, name)))

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class PureState:
    """A pure qubit state, i.e. a unit Bloch vector.

    The (theta, phi) parametrization follows the usual spherical convention:
    direction = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)), with
    the antipodal partner at (pi - theta, phi + pi).
    """

    direction: BlochVector

    def __post_init__(self):
        n = self.direction.norm()
        if not abs(n - 1.0) <= UNIT_ATOL:
            raise ValidationError(
                f"pure state requires a unit Bloch vector; |r| = {n!r}"
            )

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "PureState":
        """State at polar angle theta from +z and azimuth phi (radians)."""
        theta, phi = _float(theta), _float(phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValidationError(f"angles must be finite, got ({theta!r}, {phi!r})")
        st = math.sin(theta)
        return cls(BlochVector(st * math.cos(phi), st * math.sin(phi), math.cos(theta)))

    def antipode(self) -> "PureState":
        """The orthogonal state, -direction = psi(pi - theta, phi + pi)."""
        return PureState(-self.direction)


@dataclass(frozen=True)
class Observable:
    """A +1/-1 valued spin observable n . sigma given by its unit axis."""

    axis: BlochVector

    def __post_init__(self):
        n = self.axis.norm()
        if not abs(n - 1.0) <= UNIT_ATOL:
            raise ValidationError(f"observable requires a unit axis; |axis| = {n!r}")

    def eigenstate(self, outcome: int) -> PureState:
        _check_outcome(outcome)
        return PureState(self.axis if outcome == 1 else -self.axis)

    def eigenstates(self) -> tuple[PureState, PureState]:
        """(|+axis>, |-axis>) in outcome order (+1, -1)."""
        return (self.eigenstate(1), self.eigenstate(-1))


SIGMA_Y = Observable(BlochVector(0.0, 1.0, 0.0))
SIGMA_Z = Observable(BlochVector(0.0, 0.0, 1.0))


def polar_observable(theta: float) -> Observable:
    """Spin along (0, sin(theta), cos(theta)): the y-z-plane measurement axis
    at polar angle theta (radians) from +z."""
    theta = _float(theta)
    if not math.isfinite(theta):
        raise ValidationError(f"polar angle must be finite, got {theta!r}")
    return Observable(BlochVector(0.0, math.sin(theta), math.cos(theta)))


def born(overlap):
    """Born rule for arrays of overlaps r . n of a state's Bloch vector with
    a measurement axis: (..., 2) holding p(+1) = (1 + r . n)/2 and
    p(-1) = (1 - r . n)/2. |r . n| may exceed 1 by 1e-12 (the result is
    clipped to [0, 1]); anything else, NaN included, raises ValidationError.
    """
    return _born(_floats(overlap))


def _born(x):
    """born of the float64 array x, which the caller has converted."""
    # written as an in-range test so that NaN fails it too
    if not (np.abs(x) <= 1.0 + UNIT_ATOL).all():
        raise ValidationError("Bloch overlaps must be finite with |r . n| <= 1")
    p = 0.5 * (1.0 + x[..., None] * _SIGNS)
    # inner products can overshoot [-1, 1] by an ulp (np.clip is slower on 2x2)
    return np.minimum(np.maximum(p, 0.0, out=p), 1.0, out=p)


@dataclass(frozen=True)
class CorrectionMap:
    """Outcome-conditioned re-preparation applied after the measurement.

    Every sharp qubit measurement is of measure-and-prepare form, so the most
    general correction in scope is a pair of target states, one per outcome.
    """

    target_plus: PureState
    target_minus: PureState

    @classmethod
    def identity_for(cls, obs: Observable) -> "CorrectionMap":
        """Leave the post-measurement eigenstates |+-m> untouched."""
        plus, minus = obs.eigenstates()
        return cls(plus, minus)

    @classmethod
    def from_rotation_angles(cls, vartheta: float, phi: float) -> "CorrectionMap":
        """Send outcome +1 to psi(vartheta, phi) and -1 to its antipode."""
        plus = PureState.from_angles(vartheta, phi)
        return cls(plus, plus.antipode())

    def target(self, outcome: int) -> PureState:
        _check_outcome(outcome)
        return self.target_plus if outcome == 1 else self.target_minus

    def overlaps(self, obs: Observable) -> tuple[float, float]:
        """(target_plus . axis, target_minus . axis) for obs's axis."""
        return (self.target_plus.direction.dot(obs.axis),
                self.target_minus.direction.dot(obs.axis))


@dataclass(frozen=True)
class ProjectiveInstrument:
    """A sharp measurement plus the re-preparation rule for its output.

    With the default post map the instrument projects onto the eigenstates
    |+-m> of the measured observable.
    """

    measured: Observable
    post_map: CorrectionMap = None

    def __post_init__(self):
        if self.post_map is None:
            object.__setattr__(self, "post_map", CorrectionMap.identity_for(self.measured))

    def outcome_probability(self, state: PureState, outcome: int) -> float:
        """p(outcome) = (1 + outcome * r . axis) / 2 for the measured axis."""
        _check_outcome(outcome)
        return float(born(state.direction.dot(self.measured.axis))[OUTCOMES.index(outcome)])

    def apply(self, state: PureState, outcome: int) -> tuple[float, PureState]:
        """(outcome probability, emitted state) for one measurement branch."""
        return (self.outcome_probability(state, outcome), self.post_map.target(outcome))
