"""Append-only JSON-lines files: the translation cache and the run log.

A writer killed mid-append leaves whole lines followed by at most one
torn line: ``read`` skips the torn one and the next ``append`` cuts it
off.  ``parse`` turns one line (bytes) into a value, raising
``ValueError`` when the line is unreadable.
"""

import io
import itertools
import os

from .errors import ConfigError

__all__ = ["append", "read"]


def read(path, parse):
    """Yield ``(line number, parse(line))`` for each non-blank line.  An
    unreadable last line is skipped; an earlier one is a ``ConfigError``."""
    bad = None  # (line number, error) of an unreadable line
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if bad is not None:
                raise ConfigError(f"{path}:{bad[0]}: {bad[1]}")
            try:
                value = parse(line)
            except ValueError as exc:
                bad = (lineno, exc)
                continue
            yield lineno, value


def append(path, lines, parse) -> None:
    """Append ``lines`` (strings without newlines, possibly a lazy
    iterator) to ``path``, after cutting off an unreadable last line or
    ending a whole one.  Lines stream through a bounded buffer, so a
    batch is never held whole; if ``lines`` raises partway, the lines
    it gave are written whole before the error propagates.  Nothing is
    touched when ``lines`` is empty.  A failed system call that names
    no file (a read or write, say on a full disk) is re-raised naming
    ``path``."""
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        return
    try:
        with open(path, "ab+", buffering=0) as fh:
            # Read back from the end until the last non-blank line is whole,
            # in steps that start at about one cache line and double.
            pos = fh.seek(0, os.SEEK_END)
            tail, step = b"", 256
            while pos > 0 and b"\n" not in tail.rstrip():
                step = min(pos, step)
                pos -= step
                tail = os.pread(fh.fileno(), step, pos) + tail
                step *= 2
            body = tail.rstrip()
            start = body.rfind(b"\n") + 1
            newline = b""
            try:
                parse(body[start:])
            except ValueError:  # a torn line, or only blank ones
                fh.truncate(pos + start)
            else:
                if not tail.endswith(b"\n"):
                    newline = b"\n"
            # Closing the buffer flushes it, also when ``lines`` raises.
            with io.BufferedWriter(fh) as out:
                out.write(newline)
                for line in itertools.chain([first], lines):
                    out.write((line + "\n").encode("utf-8"))
    except OSError as exc:
        if exc.filename is not None or exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None
