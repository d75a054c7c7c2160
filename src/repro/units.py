"""Unit constants and conversion helpers.

Internally the simulator works in SI base units: seconds, bytes, FLOPs,
watts, joules, hertz. These constants make call sites read like the
datasheets they encode (``900 * GB_PER_S``, ``40 * GIB``).
"""

from __future__ import annotations

# --- data sizes (decimal, as used in bandwidth datasheets) ---------------
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

# --- data sizes (binary, as used for memory capacities) ------------------
KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30
TIB = 1 << 40

# --- time -----------------------------------------------------------------
US = 1e-6
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0

# --- rates ----------------------------------------------------------------
GB_PER_S = GB  # bytes / second
TFLOPS = 1e12  # FLOP / second
GFLOPS = 1e9

# --- frequency ------------------------------------------------------------
MHZ = 1e6
GHZ = 1e9
