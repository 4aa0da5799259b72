"""Global size guards.

Everything in this package is exact and exhaustive, so structure sizes are
capped.  The cap applies per coordinate lattice / per point set, keeping all
subset bitmasks within a few machine words.
"""

import os

from .errors import BoundsTooLarge

DEFAULT_MAX_ELEMENTS = 64

BRUTE_FORCE_IDEAL_LIMIT = 20  # brute-force down-set oracle cap (elements)


def max_elements() -> int:
    """Size guard for one lattice / point set; BISTONE_MAX_ELEMENTS overrides."""
    raw = os.environ.get("BISTONE_MAX_ELEMENTS")
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise BoundsTooLarge(f"BISTONE_MAX_ELEMENTS must be a positive integer, got {raw!r}")
    return value
