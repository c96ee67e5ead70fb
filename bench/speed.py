"""A fixed probe of how fast the host is running right now.

The host this benchmark was tuned on, a shared 2-vCPU virtual machine, drifts
in speed by up to 2x within minutes: in one process that did nothing else,
the same cquantile call took 0.50 s and, four minutes later, 0.26 s. Raw
wall times from runs minutes apart are then not comparable. So the
benchmark times this probe between invocations and scales each
invocation's time by PROBE_REFERENCE_S over the mean time of the probes on
either side.

The probe is made of the primitives the CLI's hot paths are made of, so
that it slows down with them: small-array numpy arithmetic in a Python loop
(slice inversion), csv parsing with float conversion (ingest) and
%.10g formatting (rendering). It uses no lpstats code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# The probe's duration when the host used while tuning this benchmark (2
# vCPU Intel Xeon, Python 3.11, numpy 2.4) ran at its fastest. A time
# multiplied by PROBE_REFERENCE_S over the probe's time reads as seconds at
# that speed.
PROBE_REFERENCE_S = 0.012


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.cdf = np.sort(rng.random(296))
        self.lower = np.concatenate(([0.0], self.cdf[:-1]))
        self.masses = self.cdf - self.lower
        self.density = rng.random(296)
        self.levels = np.linspace(0.01, 0.99, 300).tolist()
        self.text = "".join(f"{a!r},{b!r},1\n"
                            for a, b in rng.random((3000, 2)).tolist())
        self.floats = rng.random(15000).tolist()

    def __call__(self) -> float:
        """Run the probe once; returns its wall time in seconds."""
        start = time.perf_counter()
        for v in self.levels:
            pieces = np.minimum(np.maximum(v - self.lower, 0.0), self.masses)
            float(pieces @ self.density)
        for row in csv.reader(io.StringIO(self.text)):
            [float(f.strip()) for f in row]
        "".join(f"{v:.10g}," for v in self.floats)
        return time.perf_counter() - start
