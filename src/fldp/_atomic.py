"""Whole-file replacement, so an output is either the old file or the new one.

Every file the package writes goes through :func:`replace_atomically`: the
content goes to a temporary file beside the target, which is renamed over
the target only once the writer has finished. A writer that raises leaves
the previous file untouched and removes its temporary file. The rename is
atomic on POSIX and Windows because both names share a directory; the
data is not fsynced, so the guarantee covers a crashing program, not a
power loss.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def replace_atomically(path: str | Path, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Open a temporary file for writing; on success it replaces ``path``."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **open_kwargs) as handle:
            yield handle
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
