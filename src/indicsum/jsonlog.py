"""Append-only JSON-lines files: the translation cache and the run log.

A writer killed mid-append leaves a torn last line: ``read`` skips it and
the next ``append`` cuts it off.  ``parse`` turns one line (bytes) into a
value, raising ``ValueError`` when the line is unreadable.
"""

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
    """Append ``lines`` (strings without newlines) to ``path`` in one write,
    after cutting off an unreadable last line or ending a whole one."""
    data = "".join(line + "\n" for line in lines).encode("utf-8")
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
        try:
            parse(body[start:])
        except ValueError:  # a torn line, or only blank ones
            fh.truncate(pos + start)
        else:
            if not tail.endswith(b"\n"):
                data = b"\n" + data
        while data:  # a regular file takes it all unless the disk is full
            data = data[fh.write(data):]
