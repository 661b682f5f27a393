"""Time integration of theta_t = H(theta) * theta_x - Lambda^gamma theta.

Scheme: integrating-factor RK4. Each mode carries the exact linear factor
e^{-|m|^gamma dt}, and classical RK4 handles the transformed nonlinearity, so
pure-dissipation runs are exact to roundoff and the full scheme is fourth
order in time. The step size is dt = min(dt_max, cfl*dx/max(1, ||H theta||_inf)),
further clamped so steps land exactly on snapshot times and t_end.

The stepping state is theta_hat's rfft half spectrum (modes m = 0..n/2), the
layout of every SpectralField, so run(), step() and nonlinear_term() pass the
coefficients as they are to one kernel, built once per (grid, params). A step
makes 9 real transforms: one irfft of H theta for the CFL speed, then in each
RK4 stage one batched irfft of the velocity and the gradient together and one
rfft of their product.

Detectors, evaluated on each recorded snapshot:

* BlowupSuspected: non-finite state, or ||theta_x||_inf beyond 1e3 times its
  initial value, or the spectral tail fraction beyond 1e-4 while still
  growing between snapshots.
* UnderResolved: tail fraction beyond 1e-4 without growth.
* StepCollapse: dt fell below 1e-12.

The first detector to fire sets the outcome (exactly once) and stops the run.
Runs are deterministic: fixed evaluation order, no randomness, identical
inputs give bit-identical records.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import regularity
from .records import DiagnosticsSample, Outcome, RunRecord
from .regularity import RegularityConstants
from .torus import (
    RealField,
    SpectralField,
    TorusGrid,
    derivative,
    forward,
    inverse,
    tail_fraction,
)

TAIL_FLAG = 1e-4
GRADIENT_BLOWUP_FACTOR = 1e3
DT_FLOOR = 1e-12


class NonFiniteStateError(RuntimeError):
    """State left the reach of floating point; treated as suspected blow-up."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state at t={t:.6g}")
        self.t = t


class StepCollapseError(RuntimeError):
    """Step size underflowed the DT_FLOOR."""

    def __init__(self, t: float, dt: float):
        super().__init__(f"step size collapsed to {dt:.3e} at t={t:.6g}")
        self.t = t
        self.dt = dt


@dataclass(frozen=True)
class ModelParams:
    """Model configuration: dissipation exponent and discrete switches.

    linear_only disables the nonlinear term entirely; it exists for exactness
    tests of the linear part and for the pure-dissipation probe baseline.
    """

    gamma: float
    n: int
    dissipation_on: bool = True
    dealias_on: bool = True
    linear_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 2.0:
            raise ValueError(f"gamma must be in (0, 2], got {self.gamma}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 32 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 32, got {self.n!r}")


@dataclass(frozen=True)
class StepControl:
    """Time-stepping limits and the snapshot cadence."""

    t_end: float
    dt_max: float = 0.01
    cfl: float = 0.4
    snapshot_every: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not 0.0 < self.dt_max < math.inf:
            raise ValueError(f"dt_max must be positive and finite, got {self.dt_max}")
        if not 0.0 < self.snapshot_every <= self.t_end:
            raise ValueError(
                f"snapshot_every must be in (0, t_end], got {self.snapshot_every}"
            )


@dataclass
class SolverState:
    """Integration state at time t."""

    t: float
    theta_hat: SpectralField


@dataclass(frozen=True)
class DiagnosticPlan:
    """Which Holder exponents to track in each snapshot."""

    holder_alphas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for a in self.holder_alphas:
            if not 0.0 < a <= 1.0:
                raise ValueError(f"holder alpha must be in (0, 1], got {a}")


class _Kernel:
    """Symbols of one (grid, model) pair, and the integrating factors of the
    last dt, which most steps of a run repeat.

    Kernels are shared through _kernel: nothing writes to their arrays once
    built, and the factors are replaced as one (dt, half, full) tuple, so a
    reader never pairs one dt with the factors of another.
    """

    def __init__(self, grid: TorusGrid, p: ModelParams):
        if grid.n != p.n:
            raise ValueError(f"n mismatch: field has n={grid.n}, params n={p.n}")
        self.n = grid.n
        self.dx = grid.dx
        self.linear_only = p.linear_only
        modes = grid.abs_modes
        self.lam = modes**p.gamma if p.dissipation_on else np.zeros_like(modes)
        self.hilbert = grid.hilbert_mult
        symbols = np.stack([self.hilbert, grid.derivative_mult])
        # The mask is 0/1, so folding it into the symbols is exact.
        self.mask = grid.dealias_mask if p.dealias_on else None
        self.velocity_gradient = symbols if self.mask is None else symbols * self.mask
        self._last = (None, None, None)

    def factors(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """e^{-lam dt/2} and its square."""
        last = self._last
        if dt != last[0]:
            half = np.exp(-self.lam * dt / 2.0)
            last = self._last = (dt, half, half * half)
        return last[1], last[2]


# run(), step() and nonlinear_term() build and check the kernel of a (grid,
# params) pair once; a sweep worker cycles through a few (n, gamma) pairs.
_kernel = lru_cache(maxsize=8)(_Kernel)


def _nonlinear_raw(h: np.ndarray, kernel: _Kernel) -> np.ndarray:
    if kernel.linear_only:
        return np.zeros_like(h)
    velocity, gradient = np.fft.irfft(kernel.velocity_gradient * h, kernel.n, norm="forward")
    product = np.fft.rfft(velocity * gradient, norm="forward")
    return product if kernel.mask is None else product * kernel.mask


def nonlinear_term(theta_hat: SpectralField, p: ModelParams) -> SpectralField:
    """Transform of H(theta)*theta_x, pseudospectral, dealiased when enabled."""
    grid = theta_hat.grid
    raw = _nonlinear_raw(theta_hat.coeffs, _kernel(grid, p))
    if not np.all(np.isfinite(raw)):
        raise NonFiniteStateError(t=float("nan"))
    return SpectralField(grid, raw)


def _choose_dt(h, c: StepControl, kernel: _Kernel, t: float, t_limit: float) -> float:
    # The CFL speed reads the undealiased state.
    velocity = np.fft.irfft(kernel.hilbert * h, kernel.n, norm="forward")
    speed = max(1.0, float(np.max(np.abs(velocity))))
    dt = min(c.dt_max, c.cfl * kernel.dx / speed, t_limit - t)
    if dt < DT_FLOOR:
        raise StepCollapseError(t, dt)
    return dt


def _step_raw(h, t, c, kernel: _Kernel, t_limit):
    """One integrating-factor RK4 step."""
    dt = _choose_dt(h, c, kernel, t, t_limit)
    half, full = kernel.factors(dt)

    def N(v):
        return _nonlinear_raw(v, kernel)

    k1 = N(h)
    k2 = N(half * (h + dt / 2.0 * k1))
    k3 = N(half * h + dt / 2.0 * k2)
    k4 = N(full * h + dt * half * k3)
    out = full * h + dt / 6.0 * (full * k1 + 2.0 * half * (k2 + k3) + k4)
    t_new = t + dt
    if not np.all(np.isfinite(out)):
        raise NonFiniteStateError(t_new)
    return out, t_new


def step(s: SolverState, p: ModelParams, c: StepControl, t_limit: float | None = None) -> SolverState:
    """Advance one step; t_limit (default t_end) caps the step so it never
    overshoots a snapshot boundary."""
    grid = s.theta_hat.grid
    limit = c.t_end if t_limit is None else t_limit
    h, t_new = _step_raw(s.theta_hat.coeffs, s.t, c, _kernel(grid, p), limit)
    return SolverState(t=t_new, theta_hat=SpectralField(grid, h))


def _take_sample(F: SpectralField, t: float, gamma: float, plan: DiagnosticPlan) -> DiagnosticsSample:
    phys = inverse(F)
    grad = inverse(derivative(F)).values
    holder = {a: regularity.holder_seminorm(phys, a) for a in plan.holder_alphas}
    return DiagnosticsSample(
        t=t,
        l2=regularity.sobolev_norm(F, 0.0),
        linf=float(np.max(np.abs(phys.values))),
        mean=float(F.coeffs[0].real),
        hdot_half=regularity.sobolev_norm(F, 0.5),
        hdot_three_half=regularity.sobolev_norm(F, 1.5),
        hdot_mid=regularity.sobolev_norm(F, (3.0 + gamma) / 2.0),
        holder=holder,
        tail_fraction=tail_fraction(F),
        min_value=float(np.min(phys.values)),
        grad_linf=float(np.max(np.abs(grad))),
    )


def build_config(
    p: ModelParams,
    c: StepControl,
    constants: RegularityConstants,
    datum: dict | None,
    plan: DiagnosticPlan,
) -> dict:
    """Full run configuration, the unit of sweep resumption hashing.

    The model, control and constants blocks are keyed by their dataclass field
    names, so a field added there lands in every new config and its hash.
    """
    return {
        "model": _field_values(p),
        "control": _field_values(c),
        "constants": _field_values(constants),
        "datum": datum if datum is not None else {"kind": "custom"},
        "holder_alphas": list(plan.holder_alphas),
    }


def _field_values(obj) -> dict:
    # Not dataclasses.asdict: every field here is a scalar, so its deep copy
    # would only double the cost of each config hash.
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _predictions(
    theta0: RealField, first: DiagnosticsSample, p: ModelParams, constants: RegularityConstants
):
    """T* and T1 predictions where the formulas apply, None elsewhere; T1 reads the
    norms of theta0 from the run's first sample."""
    t_star_pred = None
    t_local_pred = None
    if p.dissipation_on and 0.0 < p.gamma < 1.0:
        linf0 = float(np.max(np.abs(theta0.values)))
        if linf0 > 0.0:
            alpha = regularity.alpha_policy(p.gamma)
            if alpha >= 1.0 - p.gamma:
                t_star_pred = regularity.t_star(p.gamma, alpha, linf0, constants)
    if p.dissipation_on and 0.0 < p.gamma <= 1.0:
        if first.l2 > 0.0 and first.hdot_three_half > 0.0:
            t_local_pred = regularity.t_local(p.gamma, first.l2, first.hdot_three_half, constants)
    return t_star_pred, t_local_pred


def _detect(samples: list[DiagnosticsSample]) -> tuple[Outcome, str] | None:
    """Judge the newest snapshot: its gradient against the first snapshot's, its
    tail growth against the snapshot before it (the first against itself)."""
    sample, grad0 = samples[-1], samples[0].grad_linf
    prev = samples[-2] if len(samples) > 1 else sample
    if grad0 > 0.0 and sample.grad_linf > GRADIENT_BLOWUP_FACTOR * grad0:
        return (
            Outcome.BLOWUP_SUSPECTED,
            f"gradient grew {sample.grad_linf / grad0:.3g}x (limit {GRADIENT_BLOWUP_FACTOR:g}x)"
            f" at t={sample.t:.6g}",
        )
    if sample.tail_fraction > TAIL_FLAG:
        if sample.tail_fraction > prev.tail_fraction:
            return (
                Outcome.BLOWUP_SUSPECTED,
                f"tail fraction {sample.tail_fraction:.3e} exceeds {TAIL_FLAG:g} and is "
                f"growing at t={sample.t:.6g}",
            )
        return (
            Outcome.UNDER_RESOLVED,
            f"tail fraction {sample.tail_fraction:.3e} exceeds {TAIL_FLAG:g} at t={sample.t:.6g}",
        )
    return None


def run(
    theta0: RealField,
    p: ModelParams,
    c: StepControl,
    plan: DiagnosticPlan = DiagnosticPlan(),
    constants: RegularityConstants = RegularityConstants(),
    datum: dict | None = None,
) -> RunRecord:
    """Integrate to t_end or to the first detector flag; return the record.

    Snapshots are taken at t = 0, every snapshot_every units, and at t_end.
    Early stops are always recorded in outcome/outcome_detail, never swallowed.
    Without a datum block, the config names theta0 by its samples.
    """
    grid = theta0.grid
    kernel = _kernel(grid, p)
    started = time.perf_counter()
    if datum is None:
        datum = {"kind": "custom", "samples": theta0.values.tolist()}
    config = build_config(p, c, constants, datum, plan)

    h, t = forward(theta0).coeffs, 0.0
    samples: list[DiagnosticsSample] = []
    try:
        for snapshot_index in itertools.count():
            target = min(snapshot_index * c.snapshot_every, c.t_end)
            while t < target - 1e-12:
                h, t = _step_raw(h, t, c, kernel, target)
            samples.append(_take_sample(SpectralField(grid, h), t, p.gamma, plan))
            flagged = _detect(samples)
            if flagged is not None or t >= c.t_end - 1e-12:
                break
        outcome, detail = flagged or (Outcome.COMPLETED, f"reached t_end={c.t_end:g}")
    except NonFiniteStateError as exc:
        outcome = Outcome.BLOWUP_SUSPECTED
        detail = f"non-finite state at t={exc.t:.6g}"
    except StepCollapseError as exc:
        outcome = Outcome.STEP_COLLAPSE
        detail = str(exc)
    t_star_pred, t_local_pred = _predictions(theta0, samples[0], p, constants)

    return RunRecord(
        config=config,
        samples=samples,
        outcome=outcome,
        outcome_detail=detail,
        t_star_predicted=t_star_pred,
        t_local_predicted=t_local_pred,
        wall_time=time.perf_counter() - started,
    )
