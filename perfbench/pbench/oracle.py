"""Output oracles that do not come from the code being timed.

Program outputs are digested (return value plus every buffer the run
can observe, bit for bit) and compared with digests the ``reference``
tree-walking interpreter produced once, kept in
``perfbench/reference_outputs.json`` and regenerated by
``perfbench/make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parents[1] / \
    "reference_outputs.json"


def bind(module, entry: str, inputs: dict):
    """Entry arguments for ``inputs``: arrays are copied into fresh
    buffers (a run may write them), scalars pass through. Returns
    ``(args, buffers)``."""
    from repro.runtime.memory import Buffer, Pointer

    args, buffers = [], {}
    for formal in module.get_function(entry).args:
        value = inputs[formal.name]
        if isinstance(value, np.ndarray):
            buffer = Buffer.from_numpy(formal.name, value.copy())
            buffers[formal.name] = buffer
            args.append(Pointer(buffer, 0))
        else:
            args.append(value)
    return args, buffers


def observable(engine, buffers: dict) -> dict:
    """Argument buffers plus the module globals after a run."""
    out = dict(buffers)
    for name, buffer in engine.globals.items():
        out.setdefault(name, buffer)
    return out


def digest(value, buffers: dict) -> str:
    """Bit-exact digest of a run's return value and buffers."""
    h = hashlib.sha256()
    if value is None:
        h.update(b"none")
    elif isinstance(value, (bool, int, np.integer)):
        h.update(b"i" + repr(int(value)).encode())
    else:
        h.update(b"f" + np.float64(value).tobytes())
    for name in sorted(buffers):
        data = buffers[name].data
        h.update(b"\x00" + name.encode() + b"\x00" +
                 str(data.dtype).encode() + b"\x00")
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


def load_reference(scale: int) -> dict:
    """program name -> reference digest at ``scale``."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["scale"] != scale:
        raise ValueError(f"{REFERENCE_FILE.name} holds scale "
                         f"{payload['scale']}, the benchmark runs {scale}")
    return payload["programs"]
