"""Matrix-geometric machinery for quasi-birth-death CTMCs.

The paper analyzes its flexible-multiserver chain (Figure 9) with
matrix-analytic methods [Latouche & Ramaswami; Neuts].  A QBD's
stationary vector beyond the boundary is geometric,
``pi_{k+1} = pi_k R``, where the rate matrix R is the minimal
non-negative solution of

    A0 + R A1 + R^2 A2 = 0

with A0/A1/A2 the up/local/down transition blocks of the repeating
portion.  :func:`compute_rate_matrix` finds R by the classic fixed
point iteration; helpers compute the geometric tail sums needed for
normalization and mean queue lengths.

numpy is imported by the functions that compute with it, so importing
this module (and the package) needs only the standard library; the
solver needs the ``models`` extra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np


class QbdConvergenceError(RuntimeError):
    """The R iteration failed to converge (chain unstable or ill-posed)."""


def compute_rate_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tolerance: float = 1e-12,
    max_iterations: int = 200_000,
) -> np.ndarray:
    """Solve ``A0 + R A1 + R^2 A2 = 0`` for the minimal R ≥ 0.

    Uses the natural fixed point ``R ← -(A0 + R² A2) A1⁻¹`` starting
    from 0, which converges monotonically for irreducible positive
    recurrent QBDs.
    """
    import numpy as np

    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    size = a0.shape[0]
    for block in (a0, a1, a2):
        if block.shape != (size, size):
            raise ValueError("A0, A1, A2 must be square and equally sized")
    a1_inv = np.linalg.inv(a1)
    r = np.zeros((size, size))
    for _ in range(max_iterations):
        r_next = -(a0 + r @ r @ a2) @ a1_inv
        delta = np.max(np.abs(r_next - r))
        r = r_next
        if delta < tolerance:
            spectral_radius = max(abs(np.linalg.eigvals(r)))
            if spectral_radius >= 1.0 - 1e-9:
                raise QbdConvergenceError(
                    f"R has spectral radius {spectral_radius:.6f} >= 1; "
                    "the chain is not positive recurrent (offered load too high?)"
                )
            return r
    raise QbdConvergenceError(
        f"R iteration did not converge within {max_iterations} steps"
    )


def geometric_tail_sums(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(I - R)^-1`` and ``(I - R)^-2`` for tail accounting.

    With ``pi_{b+j} = pi_b R^j``:

    * total tail probability = ``pi_b (I - R)^-1 1``
    * sum of ``j * R^j``      = ``R (I - R)^-2`` (for mean levels).
    """
    import numpy as np

    size = r.shape[0]
    identity = np.eye(size)
    inv1 = np.linalg.inv(identity - r)
    return inv1, inv1 @ inv1


def validate_generator_rows(blocks_row_sum: np.ndarray, tolerance: float = 1e-8) -> None:
    """Assert a generator's row sums vanish (used by model unit tests)."""
    import numpy as np

    worst = float(np.max(np.abs(blocks_row_sum)))
    if worst > tolerance:
        raise ValueError(f"generator rows sum to {worst:.3e}, expected 0")
