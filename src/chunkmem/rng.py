"""Deterministic random number generation.

Everything random in the library flows through Philox, a counter-based
generator whose bit stream numpy fixes across platforms, so a (seed, config)
pair pins every trajectory exactly. Episode streams derive one child
generator per episode index, which keeps generation order-independent:
episode i is the same whether it is drawn first or thousandth.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def make_rng(seed: int) -> np.random.Generator:
    """Top-level generator for a run."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def episode_rng(seed: int, episode_index: int) -> np.random.Generator:
    """Generator for one episode, derived from (seed, episode index)."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence([int(seed), int(episode_index)])
    return np.random.Generator(np.random.Philox(ss))
