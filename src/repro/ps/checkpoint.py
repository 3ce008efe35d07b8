"""Model checkpointing to disk (§IV-B4's pause path, §VI's fault
tolerance — on the real runtime).

"When temporarily pausing a running job during runtime, Harmony waits
until [the] ongoing iteration ends, stops the subtasks of the job, and
checkpoints the model parameters on disk.  Whenever it decides to
resume the job, Harmony ... restores the model parameters from the
checkpoint data."

Checkpoints use the PS wire format (:mod:`repro.ps.serialization`) with
a small header recording the clock, so a resumed job continues from the
exact synchronous step it paused at.  The local runtime resumes a job
by passing :func:`load_checkpoint`'s parameters as the job's
``initial_params``.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.errors import PSError
from repro.ps.serialization import decode, encode

_MAGIC = b"HCKP"
_VERSION = 1


def save_checkpoint(path: "str | Path",
                    params: Mapping[str, np.ndarray],
                    clock: int = 0) -> Path:
    """Write a model checkpoint; returns the resolved path."""
    if clock < 0:
        raise PSError(f"negative clock {clock}")
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    frame = encode(dict(params))
    header = _MAGIC + struct.pack("<IQ", _VERSION, clock)
    target.write_bytes(header + frame)
    return target


def load_checkpoint(path: "str | Path") -> \
        tuple[dict[str, np.ndarray], int]:
    """Read a checkpoint back; returns ``(params, clock)``."""
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise PSError(f"{path}: not a Harmony checkpoint")
    version, clock = struct.unpack_from("<IQ", blob, 4)
    if version != _VERSION:
        raise PSError(f"{path}: unsupported checkpoint version {version}")
    params = decode(blob[4 + 12:])
    return params, int(clock)
