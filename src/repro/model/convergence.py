"""Topology-convergence model ("a random partnership selection has the
potential to scale", contributions item 2).

A peer's parent, at any instant, is either a *stable* contributor-class
node (direct/UPnP/server: ample upload, high degree) or an *unstable*
NAT/firewall node.  Section V.B argues: a peer under an unstable parent
suffers competition, loses, and re-selects -- randomly, so with
probability roughly equal to the contributor fraction of candidate
parents it lands under a stable one, where it then *stays* (children of
contributor parents rarely lose).

That is a two-state absorbing-ish Markov chain over adaptation rounds.
This module solves it exactly and also gives the transient, so the
simulator's measured "fraction of peers under contributor parents over
time" (Fig. 4's structure emerging) can be compared against the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceModel"]


@dataclass(frozen=True)
class ConvergenceModel:
    """Two-state parent-class Markov chain.

    Parameters
    ----------
    p_stable_pick:
        Probability that a (re-)selection lands on a contributor-class
        parent.  Under uniform random choice over qualified partners this
        is the contributor fraction of the candidate pool -- *larger* than
        the population contributor fraction, because NAT-to-NAT
        partnerships rarely form.
    p_lose_stable:
        Per-round probability that a child of a stable parent is forced to
        re-select (small: Eq. 6 with large ``D_p``, plus churn).
    p_lose_unstable:
        Per-round probability that a child of an unstable parent is forced
        to re-select (large: Eq. 6 with small ``D_p``).
    """

    p_stable_pick: float
    p_lose_stable: float
    p_lose_unstable: float

    def __post_init__(self) -> None:
        for name in ("p_stable_pick", "p_lose_stable", "p_lose_unstable"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability (got {v})")

    # --- chain mechanics -----------------------------------------------------
    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic matrix over states [stable, unstable].

        A child re-selects with its state's loss probability and then
        lands stable with ``p_stable_pick``.
        """
        s, u = self.p_lose_stable, self.p_lose_unstable
        q = self.p_stable_pick
        return np.array([
            [1.0 - s + s * q, s * (1.0 - q)],
            [u * q, 1.0 - u * q],
        ])

    def stationary_stable_fraction(self) -> float:
        """Long-run fraction of peers under stable parents.

        Closed form of the two-state chain's stationary distribution::

            pi_stable = u*q / (u*q + s*(1-q))
        """
        s, u, q = self.p_lose_stable, self.p_lose_unstable, self.p_stable_pick
        num = u * q
        den = u * q + s * (1.0 - q)
        if den == 0.0:  # repro: noqa[FLT001] exact zero guards division, not a tolerance check
            # no movement at all: the initial distribution persists; report
            # the selection probability as the only meaningful limit
            return q
        return num / den

    def transient(self, initial_stable: float, n_rounds: int) -> np.ndarray:
        """Stable-parent fraction after each of ``n_rounds`` adaptation
        rounds, starting from ``initial_stable``."""
        if not (0.0 <= initial_stable <= 1.0):
            raise ValueError("initial_stable must be a probability")
        if n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        P = self.transition_matrix()
        state = np.array([initial_stable, 1.0 - initial_stable])
        out = np.empty(n_rounds + 1)
        out[0] = state[0]
        for i in range(1, n_rounds + 1):
            state = state @ P
            out[i] = state[0]
        return out

    # --- calibration from first principles -------------------------------------
    @classmethod
    def from_populations(
        cls,
        contributor_fraction: float,
        *,
        mean_degree_stable: float = 12.0,
        mean_degree_unstable: float = 2.0,
        ts_blocks: float = 10.0,
        ta_seconds: float = 20.0,
        substream_rate: float = 1.0,
        churn_rate: float = 0.02,
    ) -> "ConvergenceModel":
        """Derive the chain's parameters from Eq. (6) and the population
        mix.

        The per-round loss probabilities come from Eq. 6 evaluated at the
        class-typical degrees (with the uniform ``t_delta`` prior), plus a
        class-independent churn floor.
        """
        from repro.model.dynamics import competition_loss_probability

        if not (0.0 < contributor_fraction < 1.0):
            raise ValueError("contributor_fraction must be in (0, 1)")
        p_lose_s = churn_rate + (1 - churn_rate) * competition_loss_probability(
            max(1, int(round(mean_degree_stable))), ts_blocks, ta_seconds,
            substream_rate,
        ) * 0.1  # stable parents are rarely oversubscribed at all
        p_lose_u = churn_rate + (1 - churn_rate) * competition_loss_probability(
            max(1, int(round(mean_degree_unstable))), ts_blocks, ta_seconds,
            substream_rate,
        )
        # selection pool over-represents contributors: NAT/firewall targets
        # reject incoming partnerships, so roughly only contributor-class
        # candidates are reachable for *new* partnerships, diluted by the
        # already-established mixed partner set.
        p_pick = min(1.0, contributor_fraction * 2.5)
        return cls(
            p_stable_pick=p_pick,
            p_lose_stable=min(1.0, p_lose_s),
            p_lose_unstable=min(1.0, p_lose_u),
        )
