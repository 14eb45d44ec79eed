"""Welfare and inequality statistics over a solved equilibrium.

Inequality is measured across group mean incomes: group i's expected
income is u_i * b + (1 - u_i) * w_i and groups are weighted by
population share.
"""

from __future__ import annotations

import numpy as np

from .model import Equilibrium

__all__ = ["social_welfare", "gini", "group_incomes"]


def group_incomes(eq: Equilibrium) -> tuple[float, ...]:
    """Expected per-capita income of each group, u_i b + (1 - u_i) w_i."""
    b = eq.params.b
    return tuple(g.u * b + (1.0 - g.u) * g.w for g in eq.groups)


def social_welfare(eq: Equilibrium) -> float:
    """Per-capita output sum_i [y (1-u_i) + b u_i] L_i / L minus vacancy cost c v."""
    p = eq.params
    total = eq.total_size
    produced = sum((p.y * (1.0 - g.u) + p.b * g.u) * g.size / total for g in eq.groups)
    return produced - p.c * eq.v


def _weighted_gini(values: np.ndarray, weights: np.ndarray) -> float:
    mean = float(weights @ values)
    if mean <= 0.0:
        raise ValueError("Gini undefined for a distribution with nonpositive mean income")
    spread = float(
        np.sum(np.abs(values[:, None] - values[None, :]) * (weights[:, None] * weights[None, :]))
    )
    return spread / (2.0 * mean)


def gini(eq: Equilibrium) -> float:
    """Gini coefficient of the group mean incomes, weighted by group size."""
    total = eq.total_size
    weights = np.array([g.size / total for g in eq.groups])
    return _weighted_gini(np.array(group_incomes(eq)), weights)
