"""Regularity-theory calculators: homogeneous Sobolev norms, the Holder
estimator, the xi(t) schedule with its vanishing time T*, the local-existence
horizon T1, the gamma_1 dissipation threshold, and the energy-inequality probe
run over recorded diagnostics.

xi(t) has one formula, RegularitySchedule.xi_at, and xi_0 one, in
make_schedule.

The Holder estimator is an exact pruned scan, evaluated a block of shifts at
a time. The sup increment A(h) = max_x |theta(x+h) - theta(x)| is subadditive
in h. When all n/2 shifts fit in one block (n <= 256) they are evaluated at
once. Otherwise, after A is evaluated at h = 1..k-1, at the multiples of
k = isqrt(n/2) and at n/2, every other shift h = j*k + r is bounded by
A(j*k) + A(r) and, when (j+1)*k <= n/2, by A((j+1)*k) + A(k-r). The shifts
whose padded bound over d_h^alpha exceeds the best ratio so far survive. A
second level bounds them the same way at stride s = isqrt(k), from A at the
multiples of s next to each survivor and the A(r), r < s, already evaluated.
Only the survivors of both levels are evaluated. The result is equal (==) to
the scan over all n/2 shifts.

All formulas involving the unknown analysis constants (k1, k2, c0, C_star,
C1, C3) default those constants to 1; every reported T*, T1 or gamma_1 is in
units of the configured constants, never an absolute physical claim.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .records import Outcome, RunRecord, SampleTable
from .torus import TAIL_LIMIT, TWO_PI, RealField, SpectralField, TorusGrid

# Relative pad on the Holder pruning bound. A computed increment and a computed
# bound each lie within a few ulps (~1e-16) of their exact values, so this pad
# keeps every skipped shift provably at or below the best ratio.
_BOUND_PAD = 1.0 + 1e-12

# Elements of one block of the Holder scan, 2**15 float64 (256 KiB): a block
# of windows is differenced in a buffer that stays in cache.
_BLOCK = 2**15


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
            if isinstance(value, bool):
                raise ValueError(f"{f.name} must be a number, got {value}")
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


# An exponent this close to the policy alpha is the policy alpha: --alpha 0.2
# names gamma 0.9's policy value 0.19999999999999996.
POLICY_ALPHA_TOL = 1e-12


def schedule_alpha(gamma: float, tracked: tuple[float, ...]) -> float:
    """The exponent of a run's T*: the one exponent the run tracks, when it
    lies in [1-gamma, 1) and is not the policy alpha within POLICY_ALPHA_TOL;
    else the policy alpha."""
    policy = alpha_policy(gamma)
    if len(tracked) == 1 and 1.0 - gamma <= tracked[0] < 1.0 and abs(tracked[0] - policy) > POLICY_ALPHA_TOL:
        return tracked[0]
    return policy


def tracked_schedule_alpha(gamma: float, tracked: tuple[float, ...]) -> float | None:
    """The tracked exponent (the smallest within POLICY_ALPHA_TOL) T* is computed
    at; None when gamma is outside (0, 1) or the run does not track it."""
    if not 0.0 < gamma < 1.0:
        return None
    alpha = schedule_alpha(gamma, tracked)
    return min((a for a in tracked if abs(a - alpha) <= POLICY_ALPHA_TOL), default=None)


def holder_alphas(gamma: float, dissipation_on: bool) -> tuple[float, ...]:
    """Holder exponents a run tracks by default: the policy alpha when it is
    dissipative with gamma in (0, 1); else none."""
    return (alpha_policy(gamma),) if dissipation_on and 0.0 < gamma < 1.0 else ()


def t_star(
    gamma: float, alpha: float, linf0: float, k: RegularityConstants = RegularityConstants()
) -> float:
    """Eventual-regularization time T* = C * alpha^{1/(1-gamma)} * linf0^{gamma/(1-gamma)}.

    C = C_star * k1 * k2^{gamma/(1-gamma)} / gamma. Defined only for gamma in
    (0, 1); the formula degenerates at the critical exponent. Near gamma = 1 a
    power can overflow or underflow float64 while T* does not; unless every
    power and the product are normal floats, the product is taken as the exp
    of its log, and math.inf is returned when T* exceeds float64.
    """
    validate_schedule_params(gamma, alpha)
    if not linf0 > 0.0:
        raise ValueError(f"linf0 must be positive, got {linf0}")
    e = gamma / (1.0 - gamma)
    try:
        powers = (k.k2**e, alpha ** (1.0 / (1.0 - gamma)), linf0**e)
        vanishing = k.C_star * k.k1 * powers[0] / gamma * powers[1] * powers[2]
    except OverflowError:
        powers, vanishing = (), math.inf
    if all(sys.float_info.min <= v < math.inf for v in (*powers, vanishing)):
        return vanishing
    log_t = math.log(k.C_star * k.k1 / gamma) + math.log(alpha) / (1.0 - gamma)
    log_t += e * (math.log(k.k2) + math.log(linf0))
    try:
        return math.exp(log_t)
    except OverflowError:
        return math.inf


def predicted_t_star(gamma: float, dissipation_on: bool, tracked: tuple[float, ...], linf0: float,
                     k: RegularityConstants) -> float | None:
    """A run's T* at schedule_alpha's exponent, from its datum's sup norm linf0:
    None where no T* applies (no dissipation, gamma outside (0, 1), a zero
    datum, an exponent below 1 - gamma), math.inf beyond float64."""
    if not (dissipation_on and 0.0 < gamma < 1.0 and linf0 > 0.0):
        return None
    alpha = schedule_alpha(gamma, tracked)
    return t_star(gamma, alpha, linf0, k) if alpha >= 1.0 - gamma else None


@dataclass(frozen=True)
class RegularitySchedule:
    """Frozen xi schedule for one run, built by make_schedule: exponents, xi_0
    and T*."""

    gamma: float
    alpha: float
    xi0: float
    t_star: float

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
    return RegularitySchedule(gamma, alpha, xi0, vanishing)


def sobolev_norm(F: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm (2*pi * sum_m |m|^{2s} |theta_hat_m|^2)^{1/2}.

    The sum runs over all modes |m| <= n/2; the half spectrum carries it with
    the grid's Parseval weights. For s = 0 this is the full L2 norm (the mean
    contributes |0|^0 = 1); for s > 0 the mean mode drops out automatically.
    """
    if not s >= 0.0:  # NaN too
        raise ValueError(f"s must be >= 0, got {s}")
    return float(np.sqrt(TWO_PI * np.sum(sobolev_weights(F.grid, s) * np.abs(F.coeffs) ** 2)))


def sobolev_weights(grid: TorusGrid, s: float) -> np.ndarray:
    """The half-spectrum weights w_m |m|^{2s} of sobolev_norm's sum."""
    return grid.weights * grid.abs_modes ** (2.0 * s)


def _sup_increments(windows: np.ndarray, shifts: slice, sup: np.ndarray, buf: np.ndarray) -> None:
    """sup[h] = A(h) = max_x |theta(x+h) - theta(x)| for the shifts h of a
    slice, where windows[h] is theta(x+h), a window of the field laid out
    twice. The windows are differenced len(buf) rows at a time, each block
    one subtract, abs and row max in buf."""
    rows, out = windows[shifts], sup[shifts]
    size = len(buf)
    for i in range(0, len(out), size):
        chunk = out[i : i + size]
        block = buf[: len(chunk)]
        np.subtract(rows[i : i + size], windows[0], out=block)
        np.abs(block, out=block)
        block.max(axis=1, out=chunk)


def _slices(shifts: np.ndarray, step: int) -> list[slice]:
    """The sorted shifts as the fewest slices of the given step."""
    cuts = np.flatnonzero(np.diff(shifts) != step)
    starts = np.append(shifts[:1], shifts[cuts + 1]).tolist()
    stops = np.append(shifts[cuts], shifts[-1:]).tolist()
    return [slice(a, b + 1, step) for a, b in zip(starts, stops)]


def holder_seminorm(f: RealField, alpha: float) -> float:
    """C^alpha seminorm estimated over all grid-representable separations.

    For each offset of h grid cells the maximal increment A(h) is divided by
    the geodesic distance d_h raised to alpha; separations below the grid
    spacing are unobservable and excluded by construction.

    Only the shifts that can still set the maximum are evaluated, a block of
    them at a time (_sup_increments). When all n/2 shifts fit in one block
    they are evaluated at once. Otherwise A(h) is computed at h = 1..k-1, at
    every multiple of k = isqrt(n/2) and at n/2. Subadditivity bounds every
    other shift h = j*k + r by min(A(j*k) + A(r), A((j+1)*k) + A(k-r)), the
    second term only when (j+1)*k <= n/2. A shift survives where
    bound * _BOUND_PAD / d_h^alpha exceeds the best ratio so far. A second
    level does the same at stride s = isqrt(k): A is computed at the
    multiples of s next to each survivor, and a survivor h = m*s + r is
    bounded again by min(A(m*s) + A(r), A((m+1)*s) + A(s-r)), whose A(r) and
    A(s-r) the first level holds. Only the survivors of both bounds are
    evaluated.

    The result is exact, equal to the maximum over all n/2 shifts. Each stored
    difference is a correctly rounded subtraction, so every computed A is
    within one ulp relative of the exact increment of the stored samples; the
    pad covers that and the rounding of a bound, so a skipped shift can at
    most tie the maximum. Every ratio that enters the maximum uses the scalar
    d**alpha of the full scan.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    n = f.grid.n
    half = n // 2
    rows = max(1, _BLOCK // n)  # windows in one block
    windows = sliding_window_view(np.concatenate((f.values, f.values)), n)
    buf = np.empty((min(rows, half), n))
    sup = np.zeros(half + 1)  # A(h) of the evaluated shifts; A(0) = 0
    shifts = np.arange(half + 1)
    dist = np.minimum(shifts * f.grid.dx, TWO_PI - shifts * f.grid.dx)
    done = shifts == 0  # the shifts whose A(h) is in sup

    def evaluate(slices: list[slice]) -> list[float]:
        ratios = []
        for shift in slices:
            _sup_increments(windows, shift, sup, buf)
            done[shift] = True
            ratios += [a / d**alpha for a, d in zip(sup[shift].tolist(), dist[shift].tolist())]
        return ratios

    if half <= rows:
        return max(evaluate([slice(1, half + 1)]))

    def survivors(h: np.ndarray, stride: int, best: float) -> np.ndarray:
        m, r = np.divmod(h, stride)
        bound = sup[m * stride] + sup[r]
        upper = (m + 1) * stride
        fits = upper <= half
        bound[fits] = np.minimum(bound[fits], sup[upper[fits]] + sup[stride - r[fits]])
        return h[bound * _BOUND_PAD / dist[h] ** alpha > best]

    k = math.isqrt(half)
    base = [slice(1, k), slice(k, half + 1, k)]
    if half % k:
        base.append(slice(half, half + 1))
    best = max(evaluate(base))
    rest = survivors(shifts[~done], k, best)
    s = math.isqrt(k)
    lattice = np.zeros(half // s + 1, dtype=bool)  # the multiples of s next to a survivor
    lattice[rest // s] = True
    lattice[np.minimum(-(-rest // s), half // s)] = True
    near = np.flatnonzero(lattice) * s
    best = max([best, *evaluate(_slices(near[~done[near]], s))])
    return max([best, *evaluate(_slices(survivors(rest[~done[rest]], s, best), 1))])


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
    (centered inside, one-sided at the ends). A ValueError refuses, checked in
    this order, a record that did not complete, has fewer than 3 snapshots,
    has snapshot times that do not strictly increase, has a tail fraction
    that ever passes torus.TAIL_LIMIT (its high-mode content makes the norm
    series meaningless) or has no model gamma. This is
    energy_inequality_probes over one record.
    """
    (result,) = energy_inequality_probes([record])
    if isinstance(result, ValueError):
        raise result
    return result


def energy_inequality_probes(records: list[RunRecord]) -> list[ProbeReport | ValueError]:
    """energy_inequality_probe over many records: each record's ProbeReport,
    or the ValueError refusing it, in order.

    The records that pass the refusal checks are grouped by their exact time
    grid, and d(X^2)/dt is one np.gradient call per group. That call does the
    one-record call's arithmetic per element, so each fit is the same (==).
    """
    results: list[ProbeReport | ValueError | None] = [None] * len(records)
    increasing: dict[bytes, bool] = {}  # each time grid's bytes, and whether its times strictly increase
    grids: dict[bytes, list[tuple[int, float]]] = {}  # each time grid's bytes, and its records' (index, gamma)
    for i, record in enumerate(records):
        t = record.samples.t
        key = t.tobytes()
        if key not in increasing:
            increasing[key] = bool(np.all(np.diff(t) > 0.0))
        try:
            gamma = _probe_gamma(record, increasing[key])
        except ValueError as exc:
            # Kept without its traceback, whose frames hold results: a cycle
            # that would keep every record alive until the cyclic collector ran.
            results[i] = exc.with_traceback(None)
        else:
            grids.setdefault(key, []).append((i, gamma))
    for members in grids.values():
        x = np.array([records[i].samples.hdot_three_half for i, _ in members])
        dx2 = np.gradient(x * x, records[members[0][0]].samples.t, axis=1, edge_order=2)
        for (i, gamma), row in zip(members, dx2):
            try:
                results[i] = _fit_probe(records[i].samples, gamma, row)
            except ValueError as exc:  # a fit that leaves float64 has no T1
                results[i] = exc.with_traceback(None)
    return results


def _probe_gamma(record: RunRecord, increasing: bool) -> float:
    """The record's model gamma once the probe's refusal checks pass, in the
    order energy_inequality_probe lists them, and gamma is in (0, 1]; else
    the refusing ValueError. increasing: whether the record's times strictly
    increase."""
    if record.outcome is not Outcome.COMPLETED:
        raise ValueError(f"probe refused: record outcome is {record.outcome.value}")
    samples = record.samples
    if len(samples) < 3:
        raise ValueError("probe needs at least 3 snapshots")
    if not increasing:
        raise ValueError("probe needs strictly increasing snapshot times")
    worst_tail = samples.tail_fraction.max()
    if worst_tail > TAIL_LIMIT:
        raise ValueError(f"probe refused: record tail fraction {worst_tail:.3e} exceeds {TAIL_LIMIT}")
    gamma = record.config.get("model", {}).get("gamma")
    if gamma is None:
        raise ValueError("probe refused: record config has no model gamma")
    t_local_exponents(gamma)  # a ValueError for a gamma outside (0, 1]
    return gamma


def _fit_probe(samples: SampleTable, gamma: float, dx2: np.ndarray) -> ProbeReport:
    """The probe's fit on samples, given d(X^2)/dt at their times."""
    e1, e2 = t_local_exponents(gamma)
    x, d, l2_0 = samples.hdot_three_half, samples.hdot_mid, float(samples.l2[0])
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
