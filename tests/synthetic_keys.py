"""Synthetic SNS raw keys shared by the AOPP tests."""

import numpy as np

# Z-window event mix of the reference dataset: both-sent, alice-only,
# bob-only, neither.
FIELD_FRACTIONS = np.array([0.29132, 0.38035, 0.31323, 0.015097])


def synthetic_sns_keys(n_bits: int, seed: int):
    """Raw keys with the four Z-window event types in the field mix.

    Event types map to (alice, bob) bits as: both-sent (1, 0), alice-only
    (1, 1), bob-only (0, 0), neither (0, 1); the first and last are the
    errors.
    """
    rng = np.random.default_rng(seed)
    kinds = rng.choice(4, size=n_bits,
                       p=FIELD_FRACTIONS / FIELD_FRACTIONS.sum())
    alice = ((kinds == 0) | (kinds == 1)).astype(np.uint8)
    bob = ((kinds == 1) | (kinds == 3)).astype(np.uint8)
    return alice, bob
