"""Twin-field QKD toolkit.

Finite-size sending-or-not-sending key-rate analysis from raw detection
counts, repeater and repeaterless capacity bounds, and a desk-scale Monte
Carlo simulation of the full protocol including phase-stabilisation
feedback.
"""

from . import aopp, bounds, decoy, finitestats, keyrate, model, montecarlo
from ._version import __version__

__all__ = [
    "aopp",
    "bounds",
    "decoy",
    "finitestats",
    "keyrate",
    "model",
    "montecarlo",
    "__version__",
]
