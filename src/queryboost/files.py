"""Writing an output file whole or not at all."""

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, binary: bool = False):
    """Open a new temporary file beside ``path``; if the block completes, make it ``path``.

    The directory of ``path`` is made first if it does not exist. The file is
    flushed, fsynced and renamed over ``path``, so a reader sees the previous
    file or the whole new one, never a torn one. If the block or the write
    raises, the temporary file is removed and any previous ``path`` is left as
    it was. Text is written as UTF-8.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
