"""Artifact files: every file kerrsim writes goes through ``atomic_open``.

A file is first written to a uniquely named temporary file beside its target
and renamed over the target only when writing succeeded, so a reader never
sees a partial artifact, a failed write leaves the previous file in place,
and two writers sharing an output directory never share a temporary file.
"""

from __future__ import annotations

import contextlib
import json
import os

__all__ = ["atomic_open", "write_json", "write_table", "write_matrix_table", "alpha_dir"]


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """Text file handle, or bytes if ``binary``, whose content replaces ``path`` on a clean exit."""
    path = os.fspath(path)
    # "x" refuses an existing name; the file keeps the umask's permissions
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb" if binary else "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, payload: dict) -> None:
    """JSON with 2-space indent and sorted keys, newline-terminated."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_table(path, header, rows) -> None:
    """CSV of a header and rows: floats as repr, which round-trips; anything else as str."""
    lines = (",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
             for row in [header, *rows])
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_matrix_table(path, rho) -> None:
    """Plot-ready CSV of a density matrix: rows m, columns n; re and im blocks."""
    blocks = (("re", rho.elems.real), ("im", rho.elems.imag))
    rows = [[part, m, *values[m].tolist()] for part, values in blocks for m in range(rho.dim)]
    write_table(path, ["part", "m", *range(rho.dim)], rows)


def alpha_dir(outdir: str, alpha: float) -> str:
    """Directory holding one amplitude's artifacts."""
    return os.path.join(outdir, f"alpha_{alpha:g}")
