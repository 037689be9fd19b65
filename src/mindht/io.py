"""Signal file reading and writing for the command-line tools.

Two formats are supported and detected by extension (``.csv`` vs anything
else):

* plain text: one decimal real per line; blank lines and lines starting with
  ``#`` are ignored;
* csv: a single row or a single column of decimal reals.

Numbers are written with ``repr``-style shortest round-trip formatting, so a
write/read cycle reproduces every double bit for bit.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

__all__ = ["SignalParseError", "read_signal", "write_signal", "write_complex"]


class SignalParseError(ValueError):
    """A signal file could not be parsed; carries the offending location."""


def _format(format: str | None, path) -> str:
    if format is not None:
        return format
    return "csv" if Path(path).suffix.lower() == ".csv" else "text"


def _parse_real(token: str, path, where: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise SignalParseError(f"{path}: {where}: not a decimal real: {token!r}") from None
    if not math.isfinite(x):
        raise SignalParseError(f"{path}: {where}: non-finite sample {token!r}")
    return x


def read_signal(path, format: str | None = None) -> tuple[np.ndarray, str]:
    """Read a real signal from a file; returns (samples, format)."""
    fmt = _format(format, path)
    text = Path(path).read_text()
    values: list[float] = []
    if fmt == "csv":
        rows = [row for row in csv.reader(text.splitlines()) if row]
        if len(rows) == 1:  # single row
            for c, tok in enumerate(rows[0], start=1):
                values.append(_parse_real(tok.strip(), path, f"row 1, column {c}"))
        else:  # single column
            for r, row in enumerate(rows, start=1):
                if len(row) != 1:
                    raise SignalParseError(
                        f"{path}: line {r}: expected a single column, got {len(row)} fields"
                    )
                values.append(_parse_real(row[0].strip(), path, f"line {r}"))
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            values.append(_parse_real(stripped, path, f"line {lineno}"))
    if not values:
        raise SignalParseError(f"{path}: no samples found")
    return np.array(values), fmt


def write_signal(path, values, format: str = "text") -> None:
    """Write a real vector in the given format (one value per line, or one csv row)."""
    vals = [repr(float(x)) for x in np.asarray(values, dtype=float)]
    if format == "csv":
        Path(path).write_text(",".join(vals) + "\n")
    else:
        Path(path).write_text("\n".join(vals) + "\n")


def write_complex(path, values, format: str = "text") -> None:
    """Write a complex vector as (real, imaginary) pairs, one per line/row."""
    pairs = [
        (repr(float(z.real)), repr(float(z.imag)))
        for z in np.asarray(values, dtype=complex)
    ]
    if format == "csv":
        lines = [f"{re},{im}" for re, im in pairs]
    else:
        lines = [f"{re} {im}" for re, im in pairs]
    Path(path).write_text("\n".join(lines) + "\n")
