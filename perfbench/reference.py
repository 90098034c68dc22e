"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same pass runs up to a quarter faster or slower, in
phases of seconds to minutes, so wall seconds alone cannot tell one commit
from the next. The timed passes therefore run this kernel before every
CLI stage, and the end-to-end pipeline time is given in units of its
median duration in the same run. The kernel mixes the kinds of work the
pipeline does: small dense products with ``tanh`` (the encoder), short
frame dot products and FFTs (the pitch and intensity loops), and building and
parsing JSON records (the feature tables). It never changes with the
program, so a faster program lowers the ratio and a faster host does not.
"""

from __future__ import annotations

import json
import time

import numpy as np

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(17, 64))
_W = _rng.normal(size=(64, 64))
_SIGNAL = _rng.normal(size=4000)
FRAMES = 300
TABLES = 40  # small tables, so the kernel adds nothing to peak memory
RECORDS = 500


def kernel() -> float:
    """Run the kernel once (about 0.1 s) and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(FRAMES):
        acc += float(np.tanh(_X @ _W).sum())
        frame = _SIGNAL[i:i + 400]
        acc += float(np.dot(frame, frame))
        acc += float(np.fft.irfft(np.abs(np.fft.rfft(frame, 1024)) ** 2)[1])
    parsed = 0
    for t in range(TABLES):
        records = {str(i): {"k": i, "v": [t, i + 1]} for i in range(RECORDS)}
        parsed += len(json.loads(json.dumps(records)))
    if parsed != TABLES * RECORDS or not np.isfinite(acc):
        raise RuntimeError("reference kernel computed a wrong result")
    return time.perf_counter() - start
