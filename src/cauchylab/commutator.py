"""Commutators of the divided symbol with the Cauchy transforms, operator
norm estimation at p = 2, and a windowed singular-value compactness proxy.

The commutator of a multiplication symbol with either transform is
assembled densely when spectra are needed; the diagonal vanishes exactly
because the principal-value discretization skips the coincident node, and
a constant symbol gives the exact zero matrix.

Compactness is numerically undecidable, so the profile operation is an
explicitly labeled proxy: the leading singular values of the commutator
compressed to a window.  Symbols whose divided form oscillates less and
less at small scales show fast decay; a logarithmic symbol does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import (apply_cauchy, apply_related_cauchy, assemble_cauchy_matrix,
                     assemble_related_matrix, weight_values)
from .curve import AccretiveWeight
from .errors import NumericalCheckError, PreconditionError
from .grid import GridFunction, Interval, lp_norm, require_same_grid

VARIANTS = ("cauchy", "related")
_POWER_TOL = 1e-3
_POWER_CAP = 800
_ROW_BLOCK_ENTRIES = 1 << 16  # commutator rows updated per block, in entries


@dataclass(frozen=True, eq=False)
class CommutatorSpec:
    """Symbol, weight, and which transform sits in the commutator."""

    symbol: GridFunction
    weight: AccretiveWeight
    variant: str = "cauchy"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise PreconditionError(f"variant must be one of {VARIANTS}")

    def divided_symbol(self) -> np.ndarray:
        """The symbol divided by b; well defined since |b| >= 1 everywhere."""
        return self.symbol.samples / weight_values(self.weight.curve, self.symbol.grid)


def _transform(spec: CommutatorSpec, f: GridFunction) -> GridFunction:
    if spec.variant == "cauchy":
        return apply_cauchy(spec.weight.curve, f)
    return apply_related_cauchy(spec.weight.curve, f)


def apply_commutator(spec: CommutatorSpec, f: GridFunction) -> GridFunction:
    """(S/b) T(f) - T((S/b) f) for the chosen transform T."""
    require_same_grid(f, spec.symbol)
    grid = spec.symbol.grid
    phi = spec.divided_symbol()
    tf = _transform(spec, f)
    phi_f = GridFunction(grid, phi * f.samples, f.support)
    t_phi_f = _transform(spec, phi_f)
    return GridFunction(grid, phi * tf.samples - t_phi_f.samples, grid.covering_interval())


def commutator_matrix(spec: CommutatorSpec, idx: np.ndarray | None = None) -> np.ndarray:
    """Dense discretized commutator, optionally compressed to given nodes."""
    grid = spec.symbol.grid
    if spec.variant == "cauchy":
        op = assemble_cauchy_matrix(spec.weight.curve, grid, idx)
    else:
        op = assemble_related_matrix(spec.weight.curve, grid, idx)
    phi = spec.divided_symbol()
    if idx is not None:
        phi = phi[idx]
    step = max(1, _ROW_BLOCK_ENTRIES // op.shape[1])
    for r0 in range(0, op.shape[0], step):   # in place: no N^2 temporaries
        rows = op[r0:r0 + step]
        rows[...] = phi[r0:r0 + step, None] * rows - rows * phi[None, :]
    return op


def _power_iteration(matrix: np.ndarray, rng: np.random.Generator) -> float:
    n = matrix.shape[0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(_POWER_CAP):
        w = matrix @ v
        new_sigma = float(np.linalg.norm(w))
        if new_sigma < 1e-150:
            return 0.0
        u = np.conj(np.conj(w) @ matrix)   # A^H w without copying A
        v = u / np.linalg.norm(u)
        if abs(new_sigma - sigma) <= _POWER_TOL * max(new_sigma, 1e-150):
            return new_sigma
        sigma = new_sigma
    raise NumericalCheckError("power iteration did not converge within the cap")


def commutator_norm_estimate(spec: CommutatorSpec, p: float, trials: int,
                             seed: int = 0) -> float:
    """Operator norm estimate of the commutator on the grid.

    p = 2: power iteration on the dense matrix composed with its Hermitian
    transpose, restarted ``trials`` times (certified to iteration
    tolerance).  p != 2: the maximum Rayleigh quotient over ``trials``
    random compactly supported probes; a lower bound only.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    if p == 2:
        matrix = commutator_matrix(spec)
        return max(_power_iteration(matrix, rng) for _ in range(trials))
    if not p >= 1:
        raise PreconditionError("p must be >= 1")
    grid = spec.symbol.grid
    best = 0.0
    for _ in range(trials):
        n = grid.count
        width = int(rng.integers(n // 8, n // 2))
        start = int(rng.integers(1, n - width - 1))
        values = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        support = Interval(grid.node(start + width // 2), (width // 2 + 1) * grid.spacing)
        probe = GridFunction(grid, (start, values), support)
        denom_p = lp_norm(probe, p)
        if denom_p == 0.0:
            continue
        best = max(best, lp_norm(apply_commutator(spec, probe), p) / denom_p)
    return best


def compactness_profile(spec: CommutatorSpec, window: Interval,
                        rank_cap: int) -> list[float]:
    """Leading singular values of the window-compressed commutator.

    Proxy contract: a symbol whose divided form loses oscillation at the
    vanishing-mean-oscillation limits yields a fast-decaying profile under
    grid refinement, a genuinely oscillation-carrying symbol does not; no
    compactness theorem is claimed.
    """
    if rank_cap < 1:
        raise PreconditionError("rank_cap must be >= 1")
    grid = spec.symbol.grid
    lo, hi = grid.index_range(window)
    if hi - lo < 2:
        raise PreconditionError("window holds fewer than two nodes")
    idx = np.arange(lo, hi)
    matrix = commutator_matrix(spec, idx)
    sv = np.linalg.svd(matrix, compute_uv=False)
    return [float(x) for x in sv[:rank_cap]]
