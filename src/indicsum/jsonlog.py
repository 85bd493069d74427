"""Append-only JSON-lines files: the translation cache and the run log.

Every append writes each line's newline after its bytes, so a line is
whole when it ends in ``\\n``.  Lines go out in bounded batches of whole
lines, in order.  A writer killed mid-append leaves whole lines
followed by at most one torn last line, the bytes after the last
newline: ``blocks``, and so every reader, never hands them out, and the
next ``append`` cuts them off.  A file is read ``BLOCK_BYTES`` at a
time, in blocks of whole lines; a line longer than a block spans
blocks.  ``parse`` turns one whole line (bytes, with its newline) into
a value, raising ``ValueError`` when the line is unreadable; a
whitespace-only line is never parsed.
"""

import io
import os

from .errors import ConfigError

__all__ = ["append", "blocks", "last", "parse_lines", "read"]

BATCH_LINES = 256  # lines joined into one write by ``append``
BLOCK_BYTES = 1 << 16  # bytes read at a time by ``blocks``


def blocks(path):
    """Yield ``(number of the first line, block)`` for each block of
    whole lines of ``path``, in order: the bytes of ``BLOCK_BYTES``
    reads up to the last newline among them, the rest carried over to
    the next block.  Lines are numbered from 1 across blocks; the bytes
    after the file's last newline (a torn last line) are never yielded."""
    with open(path, "rb", buffering=0) as fh:
        lineno, carry = 1, []
        while chunk := fh.read(BLOCK_BYTES):
            end = chunk.rfind(b"\n") + 1
            if not end:
                carry.append(chunk)
                continue
            block = b"".join((*carry, chunk[:end])) if carry else chunk[:end]
            carry = [chunk[end:]] if end < len(chunk) else []
            yield lineno, block
            lineno += block.count(b"\n")


def parse_lines(path, lineno, data, parse):
    """Yield ``(line number, parse(line))`` for each non-blank line of
    ``data``, whole lines of ``path`` whose first is line ``lineno``; a
    line that ``parse`` rejects is a ``ConfigError`` naming it."""
    for lineno, line in enumerate(io.BytesIO(data), start=lineno):
        if line.isspace():
            continue
        try:
            value = parse(line)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        yield lineno, value


def read(path, parse):
    """Yield ``(line number, parse(line))`` for each non-blank whole line.
    An unterminated last line is skipped; a whole line that ``parse``
    rejects is a ``ConfigError`` naming it, wherever it is."""
    for lineno, block in blocks(path):
        yield from parse_lines(path, lineno, block, parse)


def _line_start(fd, pos):
    """The offset just after the last newline before offset ``pos`` of
    file ``fd``, else 0, read back in steps that start at about one
    cache line and double."""
    step = 256
    while pos > 0:
        step = min(pos, step)
        pos -= step
        newline = os.pread(fd, step, pos).rfind(b"\n")
        if newline >= 0:
            return pos + newline + 1
        step *= 2
    return 0


def last(path, parse):
    """``(line number, parse(line))`` of the last non-blank whole line of
    ``path``, read back from its end; None when the file is missing or
    has no such line.  A torn last line is passed over, and a line that
    ``parse`` rejects is a ``ConfigError`` naming it, as in ``read``."""
    try:
        fh = open(path, "rb", buffering=0)
    except FileNotFoundError:
        return None
    with fh:
        fd = fh.fileno()
        end = _line_start(fd, os.fstat(fd).st_size)
        while end > 0:
            start = _line_start(fd, end - 1)
            line = os.pread(fd, end - start, start)
            if not line.isspace():
                fh.seek(0)
                lineno = 1
                while start > 0 and (chunk := fh.read(min(BLOCK_BYTES, start))):
                    lineno += chunk.count(b"\n")
                    start -= len(chunk)
                return next(parse_lines(path, lineno, line, parse))
            end = start
    return None


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
            fh.truncate(_line_start(fh.fileno(), fh.seek(0, os.SEEK_END)))
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
