"""Commutators of the divided symbol with the Cauchy transform, operator
norm estimation at p = 2, and a windowed singular-value compactness proxy.

The commutator of a multiplication symbol with the Cauchy transform is
assembled densely when spectra are needed, by the dense builder of
``cauchy``: each kernel-block chunk is weighted and commuted with the
symbol while it is in cache, entry for entry as the separate whole-matrix
passes would.  The diagonal vanishes exactly because the principal-value
discretization skips the coincident node, and a constant symbol gives the
exact zero matrix.

Compactness is numerically undecidable, so the profile operation is an
explicitly labeled proxy: the leading singular values of the commutator
compressed to a window.  Symbols whose divided form oscillates less and
less at small scales show fast decay; a logarithmic symbol does not.  The
values are sigma_k = sqrt(lambda_k(M^H M)), the eigenvalues of the Gram
matrix by ``eigvalsh``, whose relative error is about u (sigma_1/sigma_k)^2;
where that bound at the rank cap exceeds 1e-10, or the matrix is zero or
so small that its Gram matrix is subnormal, the full SVD of the same matrix
gives them instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import _assemble_dense, _require_memory, apply_cauchy, weight_values
from .curve import AccretiveWeight
from .errors import NumericalCheckError, PreconditionError
from .grid import GridFunction, Interval, lp_norm, require_int, require_same_grid

_POWER_TOL = 1e-3
_POWER_CAP = 800
# Work bound: matrix-vector products one estimate may make, counted at the
# cap, 2 * _POWER_CAP per power-iteration restart and 2 per random probe.
MAX_MATVECS = 1 << 20
# The Gram path's relative error in sigma_k is about u (sigma_1 / sigma_k)^2,
# u = 2^-53 (Golub & Van Loan, Matrix Computations, 4th ed., 8.6); its values
# are taken only where that bound at the rank cap is at most this.
_GRAM_ERROR_BOUND = 1e-10
_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class CommutatorSpec:
    """Symbol and weight of the commutator with the Cauchy transform."""

    symbol: GridFunction
    weight: AccretiveWeight

    def divided_symbol(self) -> np.ndarray:
        """The symbol divided by b; well defined since |b| >= 1 everywhere."""
        return self.symbol.samples / weight_values(self.weight.curve, self.symbol.grid)


def apply_commutator(spec: CommutatorSpec, f: GridFunction) -> GridFunction:
    """(S/b) C(f) - C((S/b) f) for the Cauchy transform C."""
    require_same_grid(f, spec.symbol)
    grid = spec.symbol.grid
    phi = spec.divided_symbol()
    cf = apply_cauchy(spec.weight.curve, f)
    phi_f = GridFunction(grid, phi * f.samples, f.support)
    c_phi_f = apply_cauchy(spec.weight.curve, phi_f)
    return GridFunction(grid, phi * cf.samples - c_phi_f.samples, grid.covering_interval())


def commutator_matrix(spec: CommutatorSpec, idx: np.ndarray | None = None) -> np.ndarray:
    """Dense discretized commutator, optionally compressed to given nodes
    (``idx`` as in ``assemble_related_matrix``), built chunk by chunk with
    the Cauchy matrix: no N^2 temporaries."""
    return _assemble_dense(spec.weight.curve, spec.symbol.grid, idx,
                           weighted=True, phi=spec.divided_symbol())


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
    random compactly supported probes; a lower bound only.  A probe covers
    between max(1, N // 8) and N // 2 - 1 nodes, none of them an end node,
    so p != 2 needs a grid of at least 4 nodes.  More trials than
    MAX_MATVECS allows (655 at p = 2) raise PreconditionError before any work.
    """
    trials = require_int(trials, 1, "trials")
    matvecs = trials * (2 * _POWER_CAP if p == 2 else 2)
    if matvecs > MAX_MATVECS:
        raise PreconditionError(f"{trials} trials may make {matvecs} matrix-vector products, "
                                f"over the work bound of {MAX_MATVECS}")
    rng = np.random.default_rng(require_int(seed, 0, "seed"))
    if p == 2:
        matrix = commutator_matrix(spec)
        return max(_power_iteration(matrix, rng) for _ in range(trials))
    if not p >= 1:
        raise PreconditionError("p must be >= 1")
    grid = spec.symbol.grid
    n = grid.count
    if n < 4:
        raise PreconditionError(f"p = {p} probes need a grid of at least 4 nodes, got {n}")
    best = 0.0
    for _ in range(trials):
        width = int(rng.integers(max(1, n // 8), n // 2))
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
    rank_cap = require_int(rank_cap, 1, "rank_cap")
    grid = spec.symbol.grid
    lo, hi = grid.index_range(window)
    if hi - lo < 2:
        raise PreconditionError("window holds fewer than two nodes")
    # Three n x n arrays are alive at once on the Gram path: the window matrix,
    # its conjugate copy and the product while the product is formed, then the
    # matrix, the product and eigvalsh's working copy of it.  The SVD holds two.
    _require_memory(3 * (hi - lo) ** 2, f"3 dense {hi - lo} x {hi - lo} complex matrices")
    matrix = commutator_matrix(spec, np.arange(lo, hi))
    sv = np.sqrt(np.clip(np.linalg.eigvalsh(matrix.conj().T @ matrix)[::-1], 0.0, None))
    sigma_1, sigma_cap = float(sv[0]), float(sv[min(rank_cap, sv.size) - 1])
    # u (sigma_1 / sigma_cap)^2 <= bound, as a ratio that overflows nowhere,
    # and sigma_cap^2 a normal float: a Gram matrix in the subnormal range
    # has lost its relative precision
    if not (sigma_1 > 0 and (sigma_cap / sigma_1) ** 2 >= _UNIT_ROUNDOFF / _GRAM_ERROR_BOUND
            and sigma_cap ** 2 >= _TINY):
        sv = np.linalg.svd(matrix, compute_uv=False)
    return [float(x) for x in sv[:rank_cap]]
