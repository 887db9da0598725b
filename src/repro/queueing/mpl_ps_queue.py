"""The FIFO → PS(MPL) queueing model of §4.2 (Figures 8–10).

An unbounded FIFO queue feeds a processor-sharing server that admits at
most MPL jobs; job sizes are two-phase hyperexponential (H2) so the
variability C² can be dialled arbitrarily.  Following the paper, the
system is recast as a *flexible multiserver queue*: the number of
busy "servers" floats between 1 and MPL while the total service rate
stays that of the single PS server.  The state is (n, i) with n jobs
in the system and i phase-1 jobs among the min(n, MPL) in service —
exactly the CTMC of Figure 9 — and the repeating structure for
n ≥ MPL makes it a QBD solved by matrix-geometric methods.

Sanity anchors (enforced by the test suite):

* MPL = 1 reduces to M/G/1-FIFO → matches Pollaczek–Khinchine.
* MPL → ∞ approaches M/G/1-PS → mean response time E[S]/(1-ρ),
  insensitive to C².
* C² = 1 is M/M/1 at every MPL (exponential sizes make the MPL
  irrelevant for the mean).

Like :mod:`repro.queueing.qbd`, the model imports numpy only when it
builds or solves the chain.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.queueing.qbd import compute_rate_matrix, geometric_tail_sums

if TYPE_CHECKING:
    import numpy as np


def h2_params(mean: float, scv: float) -> Tuple[float, float, float]:
    """Balanced-means H2 parameters (p, mu1, mu2) for a mean and C².

    For ``scv == 1`` this degenerates to the exponential
    (p = 1, mu1 = mu2 = 1/mean); ``scv < 1`` is not representable by
    an H2 and raises.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean!r}")
    if scv < 1.0 - 1e-12:
        raise ValueError(f"an H2 requires scv >= 1, got {scv!r}")
    if abs(scv - 1.0) < 1e-12:
        rate = 1.0 / mean
        return 1.0, rate, rate
    p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
    mu1 = 2.0 * p / mean
    mu2 = 2.0 * (1.0 - p) / mean
    return p, mu1, mu2


class MplPsQueue:
    """M/H2 FIFO queue feeding an MPL-limited PS server.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate λ.
    mpl:
        Maximum jobs sharing the PS server.
    service_mean / service_scv:
        Job-size moments (fitted to a balanced-means H2), or pass the
        raw ``(p, mu1, mu2)`` triple instead.
    """

    def __init__(
        self,
        arrival_rate: float,
        mpl: int,
        service_mean: Optional[float] = None,
        service_scv: Optional[float] = None,
        p: Optional[float] = None,
        mu1: Optional[float] = None,
        mu2: Optional[float] = None,
    ):
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {arrival_rate!r}")
        if mpl < 1:
            raise ValueError(f"mpl must be >= 1, got {mpl!r}")
        if p is None:
            if service_mean is None or service_scv is None:
                raise ValueError(
                    "provide either (service_mean, service_scv) or (p, mu1, mu2)"
                )
            p, mu1, mu2 = h2_params(service_mean, service_scv)
        assert mu1 is not None and mu2 is not None
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p!r}")
        self.arrival_rate = float(arrival_rate)
        self.mpl = int(mpl)
        self.p = float(p)
        self.q = 1.0 - self.p
        self.mu1 = float(mu1)
        self.mu2 = float(mu2)
        self._solution: Optional[Tuple[List[np.ndarray], np.ndarray]] = None

    # -- basic quantities ------------------------------------------------------

    @property
    def service_mean(self) -> float:
        """E[S] of the H2 job size."""
        return self.p / self.mu1 + self.q / self.mu2

    @property
    def service_second_moment(self) -> float:
        """E[S²] of the H2 job size."""
        return 2.0 * self.p / self.mu1**2 + 2.0 * self.q / self.mu2**2

    @property
    def service_scv(self) -> float:
        """C² of the H2 job size."""
        m = self.service_mean
        return self.service_second_moment / m**2 - 1.0

    @property
    def load(self) -> float:
        """Offered load ρ = λ E[S]; must be < 1 for stability."""
        return self.arrival_rate * self.service_mean

    # -- generator blocks -----------------------------------------------------

    def _service_rates(self, in_service: int, phase1: int) -> Tuple[float, float]:
        """Total completion rates (phase-1, phase-2) with PS sharing."""
        if in_service == 0:
            return 0.0, 0.0
        share = 1.0 / in_service
        return phase1 * self.mu1 * share, (in_service - phase1) * self.mu2 * share

    def repeating_blocks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A0, A1, A2) of the repeating portion (levels n ≥ MPL)."""
        import numpy as np

        m = self.mpl
        lam, prob_p, prob_q = self.arrival_rate, self.p, self.q
        size = m + 1
        a0 = lam * np.eye(size)
        a1 = np.zeros((size, size))
        a2 = np.zeros((size, size))
        for i in range(size):
            rate1, rate2 = self._service_rates(m, i)
            a1[i, i] = -(lam + rate1 + rate2)
            # phase-1 completion: i -> i-1, promoted job phase-1 w.p. p
            if i > 0:
                a2[i, i] += rate1 * prob_p
                a2[i, i - 1] += rate1 * prob_q
            # phase-2 completion: i unchanged, promoted phase-1 w.p. p
            if i < m:
                a2[i, i + 1] += rate2 * prob_p
            a2[i, i] += rate2 * prob_q
        return a0, a1, a2

    def boundary_up(self, level: int) -> np.ndarray:
        """Arrival block from boundary level ``level`` (< MPL)."""
        import numpy as np

        size = level + 1
        up = np.zeros((size, size + 1))
        for i in range(size):
            up[i, i + 1] = self.arrival_rate * self.p
            up[i, i] += self.arrival_rate * self.q
        return up

    def boundary_down(self, level: int) -> np.ndarray:
        """Completion block from boundary level ``level`` (1..MPL)."""
        import numpy as np

        size = level + 1
        down = np.zeros((size, level))
        for i in range(size):
            rate1, rate2 = self._service_rates(level, i)
            if i > 0:
                down[i, i - 1] = rate1
            if i < level:
                down[i, i] = rate2
        return down

    def boundary_local(self, level: int) -> np.ndarray:
        """Diagonal local block at boundary level ``level`` (< MPL)."""
        import numpy as np

        size = level + 1
        local = np.zeros((size, size))
        for i in range(size):
            rate1, rate2 = self._service_rates(level, i)
            local[i, i] = -(self.arrival_rate + rate1 + rate2)
        return local

    # -- solution ------------------------------------------------------------------

    def solve(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Stationary vectors (boundary levels 0..MPL, and R).

        Returns ``(pis, R)`` where ``pis[n]`` is the stationary vector
        of level n for n = 0..MPL and levels beyond follow
        ``pi_{MPL+j} = pi_MPL R^j``.
        """
        import numpy as np

        if self._solution is not None:
            return self._solution
        if self.load >= 1.0:
            raise ValueError(f"unstable: offered load {self.load:.3f} >= 1")
        m = self.mpl
        a0, a1, a2 = self.repeating_blocks()
        rate_matrix = compute_rate_matrix(a0, a1, a2)

        sizes = [n + 1 for n in range(m + 1)]
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        total = offsets[-1]

        balance = np.zeros((total, total))

        def add(row_level: int, col_level: int, block: np.ndarray) -> None:
            r0, c0 = offsets[row_level], offsets[col_level]
            balance[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] += block

        for n in range(m):
            add(n, n, self.boundary_local(n))
            add(n, n + 1, self.boundary_up(n))
        for n in range(1, m + 1):
            add(n, n - 1, self.boundary_down(n))
        # level m local, folding in the geometric tail: A1 + R A2
        add(m, m, a1 + rate_matrix @ a2)
        # level m up-flow is already accounted for inside A1's -λ terms;
        # the inflow from level m+1 is the R A2 term above.

        # pi Q = 0  →  Q^T pi^T = 0; replace one equation with the
        # normalization sum(levels<m) + pi_m (I - R)^-1 1 = 1.
        inv1, _inv2 = geometric_tail_sums(rate_matrix)
        system = balance.T.copy()
        weights = np.ones(total)
        weights[offsets[m] :] = inv1.sum(axis=1)
        system[-1, :] = weights
        rhs = np.zeros(total)
        rhs[-1] = 1.0
        solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        solution = np.maximum(solution, 0.0)
        # renormalize to wash out lstsq round-off
        norm = float(weights @ solution)
        solution /= norm

        pis = [solution[offsets[n] : offsets[n + 1]] for n in range(m + 1)]
        self._solution = (pis, rate_matrix)
        return self._solution

    def level_probabilities(self, max_level: int) -> List[float]:
        """P(N = n) for n = 0..``max_level``."""
        import numpy as np

        pis, rate_matrix = self.solve()
        m = self.mpl
        probabilities = []
        power = np.eye(m + 1)
        for n in range(max_level + 1):
            if n < m:
                probabilities.append(float(pis[n].sum()))
            else:
                probabilities.append(float((pis[m] @ power).sum()))
                power = power @ rate_matrix
        return probabilities

    def mean_number_in_system(self) -> float:
        """E[N] including jobs waiting in the FIFO queue."""
        pis, rate_matrix = self.solve()
        m = self.mpl
        total = sum(n * float(pis[n].sum()) for n in range(m))
        inv1, inv2 = geometric_tail_sums(rate_matrix)
        # sum_j (m + j) pi_m R^j 1 = m pi_m (I-R)^-1 1 + pi_m R (I-R)^-2 1
        tail_mass = pis[m] @ inv1
        tail_extra = pis[m] @ (rate_matrix @ inv2)
        total += m * float(tail_mass.sum()) + float(tail_extra.sum())
        return total

    def mean_response_time(self) -> float:
        """E[T] by Little's law."""
        return self.mean_number_in_system() / self.arrival_rate

    # -- references -----------------------------------------------------------------

    def ps_reference(self) -> float:
        """M/G/1-PS mean response time (the MPL → ∞ limit)."""
        return self.service_mean / (1.0 - self.load)

    def fifo_reference(self) -> float:
        """M/G/1-FIFO (Pollaczek–Khinchine) mean response time (MPL = 1)."""
        waiting = (
            self.arrival_rate * self.service_second_moment / (2.0 * (1.0 - self.load))
        )
        return self.service_mean + waiting
