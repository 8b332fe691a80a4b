"""Deterministic serialization: 17-significant-digit decimals everywhere,
byte-identical output for identical data, atomic file writes.

The stdlib json encoder cannot be told how to print floats, so a small
emitter lives here.  Floats render as ``<17-digit mantissa>e<exponent>``
(e.g. ``2.2222222222222223e-2``), which round-trips float64 exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile

import numpy as np


def fmt17(x: float) -> str:
    """Format a finite float with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    mantissa, exponent = f"{x:.16e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/str/int/float/bool/None to JSON text with
    fmt17 floats and stable key order (insertion order)."""
    pieces: list[str] = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces)


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1)) if indent else ""
    close_pad = " " * (indent * level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + nl
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt17(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + nl)
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append(pad + json.dumps(key) + (": " if indent else ":"))
            _emit(value, out, indent, level + 1)
            out.append(sep if i < len(obj) - 1 else nl)
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[" + nl)
        for i, value in enumerate(obj):
            out.append(pad)
            _emit(value, out, indent, level + 1)
            out.append(sep if i < len(obj) - 1 else nl)
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_json(a: np.ndarray) -> list:
    """Dense matrix -> row-major nested lists of [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in a]


def is_number(x) -> bool:
    """A real number that is not a bool (JSON true and false are not
    numbers)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of ``matrix_to_json``: a square nested list of [re, im] pairs
    of finite numbers; anything else raises ValueError."""
    n = len(obj) if isinstance(obj, list) else 0
    if not (n and all(isinstance(row, list) and len(row) == n
                      and all(isinstance(e, list) and len(e) == 2 and all(map(is_number, e))
                              for e in row)
                      for row in obj)):
        raise ValueError("matrix: expected a square nested list of [re, im] number pairs")
    try:
        a = np.array(obj, dtype=float)
    except OverflowError:
        raise ValueError("matrix: entry out of float range") from None
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix: entries must be finite")
    return a.view(complex)[..., 0]


def vector_to_json(v: np.ndarray) -> list:
    return [float(x) for x in np.asarray(v, dtype=float)]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see a torn
    file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def decay_csv(ts, ds, lnds) -> str:
    """Rows t,D,lnD; a nan lnD (D below the decay floor) is an empty cell."""
    lines = ["t,D,lnD"]
    for t, d, lnd in zip(ts, ds, lnds):
        lines.append(f"{fmt17(t)},{fmt17(d)},{'' if math.isnan(lnd) else fmt17(lnd)}")
    return "\n".join(lines) + "\n"
