"""The one file writer every output of the package goes through."""

from __future__ import annotations

import json
import os


def fmt_float(x: float) -> str:
    """Shortest text that reads back as the same float."""
    return repr(float(x))


def write_text(path, payload: str) -> None:
    """Write payload to path atomically: readers see the old file or the new
    one, never a part.

    The text goes to a new temporary with a random name in the target's
    directory, which is then renamed over the target. The temporary is
    created with mode 0666 less the umask, as open(path, "w") would create
    the target, and it is removed if anything fails.
    """
    head, tail = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".tmp-{tail}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, data) -> None:
    """Write data as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(data, indent=1, sort_keys=True) + "\n")
