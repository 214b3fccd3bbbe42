"""How an artifact reaches disk: the one module that opens files for
writing.

A reader of an output directory sees either the previous bytes of a file
or its complete new bytes, never a truncated file, even when the writer is
killed part way through.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .errors import ArtifactError


@contextmanager
def write_artifact(path: str | Path) -> Iterator[IO[str]]:
    """Yield a UTF-8 text handle whose content atomically replaces path.

    Text goes to `.<name>.tmp` beside path, opened with newline="" so the
    bytes are exactly what the caller writes. On a clean exit the file is
    flushed, fsynced and renamed over path; on any exception it is removed
    and path keeps its old bytes. An OSError becomes ArtifactError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ArtifactError(f"cannot write {path}: {exc}") from exc
