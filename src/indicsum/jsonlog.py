"""Append-only JSON-lines files: the translation cache and the run log.

Every append writes each line's newline after its bytes, so a line is
whole when it ends in ``\\n``.  Lines go out in bounded batches of whole
lines, in order.  A writer killed mid-append leaves whole lines
followed by at most one torn last line, the bytes after the last
newline: ``read`` skips them and the next ``append`` cuts them off.
``parse`` turns one whole line (bytes) into a value, raising
``ValueError`` when the line is unreadable.
"""

import io
import os

from .errors import ConfigError

__all__ = ["append", "read"]

BATCH_LINES = 256  # lines joined into one write by ``append``


def read(path, parse):
    """Yield ``(line number, parse(line))`` for each non-blank whole line.
    An unterminated last line is skipped; a whole line that ``parse``
    rejects is a ``ConfigError`` naming it, wherever it is."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n") or line.isspace():
                continue
            try:
                value = parse(line)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            yield lineno, value


def append(path, lines) -> None:
    """Append ``lines`` (strings without newlines, possibly a lazy
    iterator) to ``path``, after cutting off the bytes after its last
    newline.  Each line is encoded as it arrives and written in batches
    of at most ``BATCH_LINES`` whole lines, each line's newline after
    its bytes, through a buffered writer, so ``lines`` is never held
    whole.  If ``lines`` raises partway (or a line does not encode), the
    lines it gave before are written whole before the error propagates;
    a write that failed is not tried again.  Nothing is touched when
    ``lines`` is empty.  A failed system call that names no file (a read
    or write, say on a full disk) is re-raised naming ``path``."""
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        return
    try:
        with open(path, "ab+", buffering=0) as fh:
            # Read back from the end to the last newline, in steps that
            # start at about one cache line and double.
            pos, step = fh.seek(0, os.SEEK_END), 256
            while pos > 0:
                step = min(pos, step)
                pos -= step
                newline = os.pread(fh.fileno(), step, pos).rfind(b"\n")
                if newline >= 0:
                    pos += newline + 1
                    break
                step *= 2
            fh.truncate(pos)
            # A raw write may stop short without raising (a file size
            # limit, say); the buffered writer raises instead.  Closing
            # it flushes it, also when ``lines`` raises.
            with io.BufferedWriter(fh) as out:
                batch = []
                try:
                    batch.append(first.encode("utf-8"))
                    for line in lines:
                        if len(batch) == BATCH_LINES:
                            full, batch = batch, []
                            out.write(b"\n".join(full) + b"\n")
                        batch.append(line.encode("utf-8"))
                finally:
                    if batch:
                        out.write(b"\n".join(batch) + b"\n")
    except OSError as exc:
        if exc.filename is not None or exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None
