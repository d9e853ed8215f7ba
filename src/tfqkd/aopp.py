"""Actively-odd-parity pairing: bit-level procedure and aggregate estimators.

The receiver pairs each of his 0-bits with a 1-bit (random, seeded).  The
sender checks the parity of her bits at each pair and both discard pairs
with even sender parity, then keep only the first bit of each survivor.
Because raw-key errors sit in the both-sent / neither-sent populations,
odd-parity filtering rejects almost all of them.

The bit-level functions are the in-repo ground truth; ``aopp_estimate``
reproduces their aggregate statistics deterministically from tallies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RawKeyPair",
    "AoppOutput",
    "ZBitTally",
    "aopp_pair",
    "aopp_sift",
    "aopp_estimate",
    "pair_phase_error_rate",
]

_PAIR_CHUNK = 1 << 16         # key bits per chunk of aopp_pair's positions


@dataclass(frozen=True)
class RawKeyPair:
    """Matched raw keys from the Z windows, one byte per heralded event.

    Bit 0 of an event byte is Alice's key bit, bit 1 Bob's, and bit 2
    marks an event whose herald came from a genuine single-photon emission
    (simulation ground truth only).
    """

    events: np.ndarray

    @property
    def alice_bits(self) -> np.ndarray:
        return self.events & np.uint8(1)

    @property
    def bob_bits(self) -> np.ndarray:
        bits = self.events >> 1
        bits &= 1
        return bits

    @property
    def tags(self) -> np.ndarray:
        return self.events >= 4      # bit 2 is the highest bit an event sets

    @property
    def length(self) -> int:
        return int(self.events.size)

    def error_rate(self) -> float:
        # Alice's bit XOR Bob's, in one byte-sized temporary.
        mismatch = self.events >> 1
        mismatch ^= self.events
        mismatch &= 1
        return np.count_nonzero(mismatch) / max(self.length, 1)


@dataclass(frozen=True)
class AoppOutput:
    """Post-pairing key statistics."""

    n_t_prime: float
    e_z_prime: float
    n1_prime: float | None = None
    e1ph_prime: float | None = None


@dataclass(frozen=True)
class ZBitTally:
    """Receiver-side raw-key composition entering the aggregate estimator.

    n0/n1 count Bob's 0- and 1-bits; err0/err1 the erroneous ones among
    them (both-sent events inside the 0s, neither-sent events inside the
    1s).  The asymmetric error split is what makes pairing effective, so
    the estimator needs it explicitly.
    """

    n0: float
    n1: float
    err0: float
    err1: float

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0:
            raise ValueError("bit counts must be non-negative")
        if not (0 <= self.err0 <= self.n0 and 0 <= self.err1 <= self.n1):
            raise ValueError("error counts must not exceed bit counts")

    @property
    def n_t(self) -> float:
        return self.n0 + self.n1

    @property
    def e_z(self) -> float:
        return (self.err0 + self.err1) / self.n_t if self.n_t > 0 else 0.0


def _positions(bits: np.ndarray, bit: int, index) -> np.ndarray:
    """Positions of ``bit`` in ``bits`` as ``index``, filled chunk by chunk
    so that no int64 position array of the whole key is made."""
    out = np.empty(np.count_nonzero(bits == bit), dtype=index)
    filled = 0
    for lo in range(0, bits.size, _PAIR_CHUNK):
        at = np.flatnonzero(bits[lo:lo + _PAIR_CHUNK] == bit) + lo
        out[filled:filled + at.size] = at
        filled += at.size
    return out


def aopp_pair(bob_bits: np.ndarray, seed: int) -> np.ndarray:
    """Randomly pair 0-bit positions with 1-bit positions.

    Returns an array of shape (n_pairs, 2) with columns (0-position,
    1-position); n_pairs = min(#0s, #1s).  Leftover bits stay unpaired.
    Positions are int32 while the key is shorter than 2^31 bits; they are
    filled chunk by chunk and the pairs fill one preallocated array, so a
    key of any balance peaks at about 8 bytes per bit.  The shuffles draw
    the same numbers for either dtype.
    """
    bob_bits = np.asarray(bob_bits)
    if bob_bits.size == 0:
        raise ValueError("cannot pair an empty key")
    index = np.int32 if bob_bits.size < 2**31 else np.int64
    rng = np.random.default_rng(seed)
    zeros = _positions(bob_bits, 0, index)
    ones = _positions(bob_bits, 1, index)
    n_pairs = min(zeros.size, ones.size)
    rng.shuffle(zeros)
    rng.shuffle(ones)
    pairs = np.empty((n_pairs, 2), dtype=index)
    pairs[:, 0] = zeros[:n_pairs]
    pairs[:, 1] = ones[:n_pairs]
    return pairs


def aopp_sift(alice_bits: np.ndarray, bob_bits: np.ndarray,
              pairs: np.ndarray,
              tags: np.ndarray | None = None) -> AoppOutput:
    """Parity-filter the pairs and rebuild the shortened keys.

    The sender's parity at each pair decides survival (odd keeps); the
    first bit of each surviving pair is kept by both parties.  When tags
    are supplied, n1_prime counts survivors whose two source bits were
    both tagged.
    """
    alice_bits = np.asarray(alice_bits)
    bob_bits = np.asarray(bob_bits)
    if pairs.size == 0:
        return AoppOutput(n_t_prime=0, e_z_prime=0.0,
                          n1_prime=0 if tags is not None else None)
    i, j = pairs[:, 0], pairs[:, 1]
    odd = (alice_bits[i] ^ alice_bits[j]) == 1
    kept_a = alice_bits[i[odd]]
    kept_b = bob_bits[i[odd]]
    n_keep = int(kept_a.size)
    e_z = float(np.mean(kept_a != kept_b)) if n_keep else 0.0
    n1p = None
    if tags is not None:
        tags = np.asarray(tags)
        n1p = int(np.count_nonzero(tags[i[odd]] & tags[j[odd]]))
    return AoppOutput(n_t_prime=n_keep, e_z_prime=e_z, n1_prime=n1p)


def pair_phase_error_rate(e1ph: float) -> float:
    """Phase-flip error rate of a surviving pair's kept bit.

    Phase errors of the two paired bits combine by parity, so a pair is
    phase-flipped when exactly one constituent was: 2 e (1 - e).
    """
    if not 0.0 <= e1ph <= 0.5:
        raise ValueError("e1ph must lie in [0, 0.5]")
    return 2.0 * e1ph * (1.0 - e1ph)


def aopp_estimate(tally: ZBitTally, n01_lower: float, n10_lower: float,
                  e1ph_upper: float) -> AoppOutput:
    """Deterministic aggregate prediction of the bit-level procedure.

    Random pairing makes each pair an (independent-to-O(1/n)) draw of one
    0-bit and one 1-bit, so with error fractions q0 = err0/n0 and
    q1 = err1/n1:

        survival  = q0 q1 + (1-q0)(1-q1)        (odd sender parity)
        n_t'      = min(n0, n1) * survival
        E_Z'      = q0 q1 / survival             (error-error pairings)

    Untagged bits are always correct, so untagged-untagged pairs all
    survive; with the minority side fully paired, n1' = n01 * n10 /
    max(n0, n1).  The survivors' phase error doubles per
    ``pair_phase_error_rate``.
    """
    n0, n1 = tally.n0, tally.n1
    if min(n0, n1) <= 0:
        return AoppOutput(n_t_prime=0.0, e_z_prime=0.0, n1_prime=0.0,
                          e1ph_prime=0.0)
    q0 = tally.err0 / n0
    q1 = tally.err1 / n1
    survival = q0 * q1 + (1.0 - q0) * (1.0 - q1)
    n_t_prime = min(n0, n1) * survival
    e_z_prime = (q0 * q1 / survival) if survival > 0 else 0.0
    n1_prime = min(n01_lower * n10_lower / max(n0, n1), n_t_prime)
    return AoppOutput(
        n_t_prime=n_t_prime,
        e_z_prime=e_z_prime,
        n1_prime=n1_prime,
        e1ph_prime=pair_phase_error_rate(e1ph_upper),
    )
