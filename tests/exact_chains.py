"""Exact yardsticks for the hardness instance, by a Markov chain over K.

On ``simlab.gen_hardness_instance(n)`` every plan weight is 1, each of the n
types arrives with probability 1/n (so exactly one customer per step) and
buys any shown item with probability 1/n.  Every coin survives the rounding,
the patience covers all of them and the flip order is uniform, so a policy
that treats the items alike depends only on K, the number of items still
available.  A customer facing K items buys with probability 1 - (1 - 1/n)^K.
Each chain below costs O(T * n).
"""
from __future__ import annotations

import math

import numpy as np

from mcassort.attenuate import gamma_schedule


def _step(P: np.ndarray, sell: np.ndarray) -> np.ndarray:
    """Move mass from K to K - 1 with probability ``sell[K]``."""
    nxt = P * (1.0 - sell)
    nxt[:-1] += (P * sell)[1:]
    return nxt


def hardness_edge_chain(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 with exact factors: returns (offer, edge), one entry per step.

    ``offer[t-1]`` is the probability that a given item is flipped for a given
    type at step t, sum_K P_t(K) (1 - (1 - 1/n)^K), and ``edge[t-1]`` is the
    exact edge factor (1 - e^{-gamma_t}) / offer[t-1].  Survival before vertex
    attenuation is then exactly gamma_{t+1}, so every exact vertex factor is 1.
    """
    sched = gamma_schedule(n)
    buys = 1.0 - (1.0 - 1.0 / n) ** np.arange(n + 1)
    P = np.zeros(n + 1)
    P[n] = 1.0
    offer, edge = np.zeros(n), np.zeros(n)
    for t in range(1, n + 1):
        offer[t - 1] = P @ buys
        edge[t - 1] = (1.0 - math.exp(-sched.gamma(t))) / offer[t - 1]
        P = _step(P, edge[t - 1] * buys)
    return offer, edge


def hardness_offer_all_fraction(n: int) -> float:
    """Expected sold fraction of the offer-all policy (``hardness_sold_fraction``)."""
    buys = 1.0 - (1.0 - 1.0 / n) ** np.arange(n + 1)
    P = np.zeros(n + 1)
    P[n] = 1.0
    for _ in range(n):
        P = _step(P, buys)
    return float(n - P @ np.arange(n + 1)) / n
