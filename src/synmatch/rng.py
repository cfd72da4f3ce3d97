"""Seeded random-number streams.

Every random decision in the package flows from one user seed through a
named subsystem stream, so ingest / training / evaluation are individually
reproducible no matter which other subsystems ran before them.
"""

import numpy as np

from .corpus import is_integer
from .errors import DataError

# Fixed stream indices; changing these changes every derived stream.
STREAMS = {
    "ingest": 0,
    "train": 1,
    "eval": 2,
    "init": 3,
    "synth": 4,
}


def check_seed(seed):
    """A DataError unless seed is a non-negative Python or numpy integer."""
    if not is_integer(seed):
        raise DataError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")


def stream_rng(seed, name, *extra):
    """Generator for subsystem `name`, optionally keyed further by `extra` ints;
    the same (seed, name, extra) always yields the same stream."""
    check_seed(seed)
    if name not in STREAMS:
        raise KeyError(f"unknown rng stream {name!r}; known: {sorted(STREAMS)}")
    key = [int(seed), STREAMS[name]] + [int(x) for x in extra]
    return np.random.default_rng(key)
