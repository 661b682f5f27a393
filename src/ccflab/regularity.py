"""Regularity-theory calculators: homogeneous Sobolev norms, the Holder
estimator and its modulated v-field, the xi(t) schedule with its vanishing
time T*, the local-existence horizon T1, the gamma_1 dissipation threshold,
and the energy-inequality probe run over recorded diagnostics.

The Holder estimator and the v-field share one increment kernel, _increment,
which reads theta(x+h) as a slice of the field laid out twice; xi(t) has one
formula, RegularitySchedule.xi_at, and xi_0 one, in make_schedule.

The Holder estimator is an exact pruned scan. The sup increment
A(h) = max_x |theta(x+h) - theta(x)| is subadditive in h, so after A is
evaluated at h = 1..k-1, at the multiples of k = isqrt(n/2) and at n/2, every
other shift h = j*k + r is bounded by A(j*k) + A(r) and, when (j+1)*k <= n/2,
by A((j+1)*k) + A(k-r). Only the shifts whose padded bound over d_h^alpha
exceeds the best ratio so far are evaluated: about sqrt(2n) base shifts plus
the survivors. The result is equal (==) to the scan over all n/2 shifts.

All formulas involving the unknown analysis constants (k1, k2, c0, C_star,
C1, C3) default those constants to 1; every reported T*, T1 or gamma_1 is in
units of the configured constants, never an absolute physical claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .records import Outcome, RunRecord
from .torus import TWO_PI, RealField, SpectralField

# Records feeding the energy probe must be spectrally resolved throughout.
PROBE_TAIL_LIMIT = 1e-4

# Relative pad on the Holder pruning bound. A computed increment and a computed
# bound each lie within a few ulps (~1e-16) of their exact values, so this pad
# keeps every skipped shift provably at or below the best ratio.
_BOUND_PAD = 1.0 + 1e-12


@dataclass(frozen=True)
class RegularityConstants:
    """Analysis constants left unquantified by the theory; all default to 1.

    k1 and k2 enter the xi schedule, c0 is carried for reference (k1 = 16*c0
    in the analysis, but both stay configurable), C_star is an aggregate scale
    on the schedule clock, C1 scales the T1 horizon, C3 the gamma_1 condition.
    """

    k1: float = 1.0
    k2: float = 1.0
    c0: float = 1.0
    C_star: float = 1.0
    C1: float = 1.0
    C3: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{f.name} must be strictly positive and finite, got {value}")
        if self.k2 < 1.0:
            raise ValueError(f"k2 must be >= 1, got {self.k2}")


def validate_schedule_params(gamma: float, alpha: float) -> None:
    """The xi schedule needs gamma in (0, 1) and alpha in [1-gamma, 1)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1) for the schedule, got {gamma}")
    if not (1.0 - gamma <= alpha < 1.0):
        raise ValueError(
            f"alpha must be in [1-gamma, 1) = [{1.0 - gamma}, 1), got {alpha}"
        )


def alpha_policy(gamma: float) -> float:
    """Default Holder exponent min(2*(1-gamma), 1/2) for gamma in [1/2, 1)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return min(2.0 * (1.0 - gamma), 0.5)


def holder_alphas(gamma: float, alpha: float | None, dissipation_on: bool) -> tuple[float, ...]:
    """Holder exponents one run tracks: an explicit alpha, validated against the
    schedule; else the policy alpha when the run is dissipative with gamma in
    (0, 1); else none."""
    if alpha is not None:
        validate_schedule_params(gamma, alpha)
        return (alpha,)
    if dissipation_on and 0.0 < gamma < 1.0:
        return (alpha_policy(gamma),)
    return ()


def t_star(
    gamma: float, alpha: float, linf0: float, k: RegularityConstants = RegularityConstants()
) -> float:
    """Eventual-regularization time T* = C * alpha^{1/(1-gamma)} * linf0^{gamma/(1-gamma)}.

    C = C_star * k1 * k2^{gamma/(1-gamma)} / gamma. Defined only for gamma in
    (0, 1); the formula degenerates at the critical exponent.
    """
    validate_schedule_params(gamma, alpha)
    if not linf0 > 0.0:
        raise ValueError(f"linf0 must be positive, got {linf0}")
    aggregate = k.C_star * k.k1 * k.k2 ** (gamma / (1.0 - gamma)) / gamma
    return aggregate * alpha ** (1.0 / (1.0 - gamma)) * linf0 ** (gamma / (1.0 - gamma))


@dataclass(frozen=True)
class RegularitySchedule:
    """Frozen xi schedule for one run, built by make_schedule: exponents, xi_0,
    T*, and the threshold M = 4*linf0/xi_0^alpha above which the modulated
    field would be flagged."""

    gamma: float
    alpha: float
    xi0: float
    t_star: float
    M: float

    def xi_at(self, t: float) -> float:
        """Modulation scale xi(t) = xi0 * (1 - t/T*)^{1/gamma}, 0 for t >= T*: the
        solution of xi' = -xi^{1-gamma} / (alpha*k1*C_star), vanishing exactly at T*."""
        if t >= self.t_star:
            return 0.0
        return self.xi0 * (1.0 - t / self.t_star) ** (1.0 / self.gamma)


def make_schedule(
    gamma: float, alpha: float, linf0: float, k: RegularityConstants = RegularityConstants()
) -> RegularitySchedule:
    """Build the schedule for initial amplitude linf0 = ||theta_0||_inf > 0,
    with xi_0 = (k2 * alpha * linf0)^{1/(1-gamma)}; t_star validates the inputs."""
    vanishing = t_star(gamma, alpha, linf0, k)
    xi0 = (k.k2 * alpha * linf0) ** (1.0 / (1.0 - gamma))
    return RegularitySchedule(gamma, alpha, xi0, vanishing, 4.0 * linf0 / xi0**alpha)


def sobolev_norm(F: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm (2*pi * sum_m |m|^{2s} |theta_hat_m|^2)^{1/2}.

    The sum runs over all modes |m| <= n/2; the half spectrum carries it with
    the grid's Parseval weights. For s = 0 this is the full L2 norm (the mean
    contributes |0|^0 = 1); for s > 0 the mean mode drops out automatically.
    """
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    weights = F.grid.weights * F.grid.abs_modes ** (2.0 * s)
    return float(np.sqrt(TWO_PI * np.sum(weights * np.abs(F.coeffs) ** 2)))


def _increment(doubled: np.ndarray, h: int, dx: float) -> tuple[np.ndarray, float]:
    """(theta(x+h) - theta(x), geodesic |h|) for h in [0, n) cells of the field
    laid out twice in doubled, where theta(x+h) is the slice doubled[h:h+n]."""
    n = doubled.size // 2
    return doubled[h : h + n] - doubled[:n], min(h * dx, TWO_PI - h * dx)


def holder_seminorm(f: RealField, alpha: float) -> float:
    """C^alpha seminorm estimated over all grid-representable separations.

    For each offset of h grid cells the maximal increment A(h) is divided by
    the geodesic distance d_h raised to alpha; separations below the grid
    spacing are unobservable and excluded by construction.

    Only the shifts that can still set the maximum are evaluated. A(h) is
    computed at h = 1..k-1, at every multiple of k = isqrt(n/2) and at n/2.
    Subadditivity bounds every other shift h = j*k + r by
    min(A(j*k) + A(r), A((j+1)*k) + A(k-r)), the second term only when
    (j+1)*k <= n/2, and h is evaluated only where
    bound * _BOUND_PAD / d_h^alpha exceeds the best base ratio.

    The result is exact, equal to the maximum over all n/2 shifts. Each stored
    difference is a correctly rounded subtraction, so every computed A is
    within one ulp relative of the exact increment of the stored samples; the
    pad covers that and the rounding of the bound, so a skipped shift can at
    most tie the maximum. Every ratio that enters the maximum uses the scalar
    d**alpha of the full scan.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    doubled = np.concatenate((f.values, f.values))
    dx = f.grid.dx
    half = f.grid.n // 2
    k = math.isqrt(half)
    sup = np.zeros(half + 1)  # A(h) of the evaluated shifts; A(0) = 0

    def ratio(h: int) -> float:
        delta, d = _increment(doubled, h, dx)
        sup[h] = np.max(np.abs(delta))
        return float(sup[h]) / d**alpha

    shifts = np.arange(half + 1)
    base = (shifts < k) | (shifts % k == 0)
    base[half] = True
    best = max(ratio(int(h)) for h in shifts[base][1:])

    rest = shifts[~base]
    j, r = np.divmod(rest, k)
    bound = sup[j * k] + sup[r]
    upper = (j + 1) * k
    fits = upper <= half
    bound[fits] = np.minimum(bound[fits], sup[upper[fits]] + sup[k - r[fits]])
    d = np.minimum(rest * dx, TWO_PI - rest * dx)
    for h in rest[bound * _BOUND_PAD / d**alpha > best]:
        best = max(best, ratio(int(h)))
    return best


def v_field(theta: RealField, h_index: int, t: float, sched: RegularitySchedule) -> RealField:
    """Modulated finite difference v = (theta(x+h) - theta(x)) / (xi(t)^2 + |h|^2)^{alpha/2}.

    h is h_index grid cells; |h| is the geodesic torus distance. A zero offset
    returns the zero field (the difference vanishes identically).
    """
    n = theta.grid.n
    h = h_index % n
    if h == 0:
        return RealField(theta.grid, np.zeros(n))
    delta, d = _increment(np.concatenate((theta.values, theta.values)), h, theta.grid.dx)
    xi = sched.xi_at(t)
    return RealField(theta.grid, delta / (xi * xi + d * d) ** (sched.alpha / 2.0))


def t_local_exponents(gamma: float) -> tuple[float, float]:
    """Exponents (e1, e2) of the T1 formula, each as one exact division.

    e1 = 2*gamma*(9+2*gamma) / (3*(9+4*gamma));
    e2 = (54 - 4*gamma^2) / (3*(9+4*gamma)), algebraically equal to
    2 - 4*gamma*(6+gamma)/(3*(9+4*gamma)) but evaluated as a single quotient
    so rational values (10/33 and 53/33 at gamma = 1/2) come out bit-exact.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    denom = 3.0 * (9.0 + 4.0 * gamma)
    e1 = 2.0 * gamma * (9.0 + 2.0 * gamma) / denom
    e2 = (54.0 - 4.0 * gamma * gamma) / denom
    return e1, e2


def t_local(
    gamma: float, l2: float, hdot32: float, k: RegularityConstants = RegularityConstants()
) -> float:
    """Local-existence horizon T1 = 1 / (C1 * l2^{e1} * hdot32^{e2}).

    l2 and hdot32 are the L2 and homogeneous H^{3/2} norms of the initial
    data; flat data (zero norms) has no H^{3/2} scale and is rejected.
    """
    e1, e2 = t_local_exponents(gamma)
    if not l2 > 0.0:
        raise ValueError(f"l2 must be positive, got {l2}")
    if not hdot32 > 0.0:
        raise ValueError(f"hdot32 must be positive, got {hdot32}")
    return 1.0 / (k.C1 * l2**e1 * hdot32**e2)


def gamma_one(
    R: float,
    k: RegularityConstants = RegularityConstants(),
    gamma_grid: tuple[float, ...] = tuple(np.linspace(0.5, 0.999, 500)),
) -> float | None:
    """Smallest grid gamma whose policy alpha clears the data-size condition
    alpha <= R^{-(18-3*gamma-2*gamma^2)/(9+4*gamma)} * C3^{-(1-gamma)}.

    R >= 1 bounds the H^{3/2} size of the data. Returns None when no grid
    point satisfies the condition.
    """
    if not R >= 1.0:
        raise ValueError(f"R must be >= 1, got {R}")
    grid = tuple(float(g) for g in gamma_grid)
    if not grid:
        raise ValueError("gamma_grid must be non-empty")
    if any(not 0.5 <= g < 1.0 for g in grid):
        raise ValueError("gamma_grid values must lie in [1/2, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("gamma_grid must be sorted strictly ascending")
    for g in grid:
        if gamma_one_condition(g, R, k):
            return g
    return None


def gamma_one_condition(gamma: float, R: float, k: RegularityConstants) -> bool:
    """Whether alpha_policy(gamma) satisfies the gamma_1 inequality at size R."""
    exponent = (18.0 - 3.0 * gamma - 2.0 * gamma * gamma) / (9.0 + 4.0 * gamma)
    rhs = R ** (-exponent) * k.C3 ** (-(1.0 - gamma))
    return alpha_policy(gamma) <= rhs


@dataclass(frozen=True)
class ProbeReport:
    """Result of fitting the energy-inequality constant over a recorded run.

    fitted_c is the smallest constant making the inequality hold at every
    snapshot; it is reported raw and is negative for strictly decaying runs.
    t1_fitted is the T1 horizon computed with C1 = fitted_c, defined only for
    a positive fit.
    """

    fitted_c: float
    t1_fitted: float | None


def energy_inequality_probe(record: RunRecord) -> ProbeReport:
    """Fit the smallest C with (X^2)'/2 + D^2/2 <= C*X^{2+e2}*l2_0^{e1} at snapshots.

    X is the homogeneous H^{3/2} norm series, D the H^{(3+gamma)/2} series at
    the record's config gamma; d(X^2)/dt uses second-order differences
    (centered inside, one-sided at the ends). Under-resolved records are
    refused: their high-mode content makes the norm series meaningless.
    """
    if record.outcome is not Outcome.COMPLETED:
        raise ValueError(f"probe refused: record outcome is {record.outcome.value}")
    samples = record.samples
    if len(samples) < 3:
        raise ValueError("probe needs at least 3 snapshots")
    worst_tail = max(s.tail_fraction for s in samples)
    if worst_tail > PROBE_TAIL_LIMIT:
        raise ValueError(
            f"probe refused: record tail fraction {worst_tail:.3e} exceeds {PROBE_TAIL_LIMIT}"
        )
    gamma = record.config.get("model", {}).get("gamma")
    if gamma is None:
        raise ValueError("probe refused: record config has no model gamma")
    e1, e2 = t_local_exponents(gamma)
    t = np.array([s.t for s in samples])
    x = np.array([s.hdot_three_half for s in samples])
    d = np.array([s.hdot_mid for s in samples])
    l2_0 = samples[0].l2
    dx2 = np.gradient(x * x, t, edge_order=2)
    numerator = 0.5 * dx2 + 0.5 * d * d
    denominator = x ** (2.0 + e2) * l2_0**e1
    usable = denominator > 0.0
    if not np.any(usable):
        fitted = 0.0
    else:
        fitted = float(np.max(numerator[usable] / denominator[usable]))
    t1 = None
    if fitted > 0.0 and l2_0 > 0.0 and x[0] > 0.0:
        t1 = t_local(gamma, l2_0, float(x[0]), RegularityConstants(C1=fitted))
    return ProbeReport(fitted_c=fitted, t1_fitted=t1)
