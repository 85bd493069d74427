"""ILSUM-style CSV files and corpus statistics.

The toolkit reads and writes CSV only here: UTF-8 with RFC-style
quoting (articles contain commas and newlines).  Train splits carry
``id,Link,Heading,Article,Summary``, validation and test splits
``id,Link,Heading,Article``, and summaries files ``id,Summary``.  Every
file is read by ``_read_rows``'s rules and written whole by ``_write_csv``.
"""

import csv
import os
import sys
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import dataclass

from . import segment
from .errors import (
    BadEncoding,
    DuplicateId,
    EmptyArticle,
    EmptySplit,
    MissingColumn,
    MissingGoldSummary,
)

SPLIT_KINDS = ("train", "validation", "test")
LANGUAGES = segment.LANGUAGES

TRAIN_COLUMNS = ("id", "Link", "Heading", "Article", "Summary")
EVAL_COLUMNS = ("id", "Link", "Heading", "Article")
SUMMARY_COLUMNS = ("id", "Summary")

# News articles routinely exceed the csv module's default field cap.
csv.field_size_limit(min(sys.maxsize, 2 ** 27))


@dataclass(frozen=True)
class ArticleRecord:
    """One dataset row; ``summary`` is None for validation/test rows."""

    id: str
    article: str
    link: str = ""
    heading: str = ""
    summary: str | None = None


@dataclass(frozen=True)
class DatasetSplit:
    """One split of one language.  ``records`` holds its rows in order:
    iterate it and take its ``len()``; do not index it (an augmented
    split makes its copies as they are read)."""

    kind: str
    language: str
    records: Iterable[ArticleRecord]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@contextmanager
def open_utf8(path, newline=None):
    """``open(path)`` for reading UTF-8 text, skipping a leading BOM; a
    byte that is not UTF-8 raises ``BadEncoding`` naming ``path``."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise BadEncoding(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_rows(path, columns, required):
    """Yield ``(line number, cells)`` for each row of the CSV at ``path``
    that has a cell which is not blank, numbered by the line it starts
    on.  ``cells`` lists the row's ``columns`` in order, ``""`` where the
    header or a short row lacks one; ``columns[0]`` is the id, stripped.

    Header names are stripped, and the first column of a name counts.
    Raises MissingColumn when the file has no header or lacks a
    ``required`` column, EmptyArticle on a blank id, DuplicateId on a
    repeated one, and BadEncoding on a file that is not UTF-8.
    """
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: file has no header row") from None
        index = {}
        for pos, name in enumerate(header):
            index.setdefault(name.strip(), pos)
        for name in required:
            if name not in index:
                raise MissingColumn(f"{path}: required column {name!r} is missing")
        positions = [index.get(name) for name in columns]

        seen = set()
        end = reader.line_num  # a quoted cell can span lines
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not any(c.strip() for c in row):
                continue
            cells = [row[pos] if pos is not None and pos < len(row) else ""
                     for pos in positions]
            rec_id = cells[0] = cells[0].strip()
            if not rec_id:
                raise EmptyArticle(f"{path}:{lineno}: row has a blank id")
            if rec_id in seen:
                raise DuplicateId(f"{path}:{lineno}: duplicate id {rec_id!r}")
            seen.add(rec_id)
            yield lineno, cells


def load_csv(path, kind: str, language: str) -> DatasetSplit:
    """Load one dataset split from ``path``.

    Raises MissingColumn when ``id``/``Article`` (or ``Summary`` for a
    train file) is absent from the header, DuplicateId on repeated ids,
    EmptyArticle on a blank Article cell and MissingGoldSummary on a
    train row with a blank Summary cell, and BadEncoding on a file that
    is not UTF-8.  Row order is preserved.
    """
    if kind not in SPLIT_KINDS:
        raise ValueError(f"unknown split kind: {kind!r}")
    if language not in LANGUAGES:
        raise ValueError(f"unknown language: {language!r}")

    required = ("id", "Article", "Summary") if kind == "train" else ("id", "Article")
    records = []
    for lineno, (rec_id, link, heading, article, summary) in _read_rows(
            path, TRAIN_COLUMNS, required):
        if not article.strip():
            raise EmptyArticle(f"{path}:{lineno}: blank Article for id {rec_id!r}")
        if kind == "train" and not summary.strip():
            raise MissingGoldSummary(
                f"{path}:{lineno}: train row {rec_id!r} has no Summary")
        records.append(ArticleRecord(rec_id, article, link, heading,
                                     summary if summary.strip() else None))

    return DatasetSplit(kind=kind, language=language, records=tuple(records))


def load_summaries(path) -> dict[str, str]:
    """Read an ``id,Summary`` CSV by ``load_csv``'s rules into
    ``{id: summary}``; a row without a Summary cell reads as ``""``."""
    return {rec_id: summary for _, (rec_id, summary)
            in _read_rows(path, SUMMARY_COLUMNS, SUMMARY_COLUMNS)}


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as a CSV.  They go to a temporary
    file beside ``path`` that replaces it once whole, so a failed write
    leaves ``path`` as it was and no file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if (isinstance(exc, OSError) and exc.errno is not None
                and exc.filename in (tmp, None)):
            # Name the file the caller asked for, not the temporary one;
            # a failed write (say on a full disk) names no file at all.
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def save_csv(split: DatasetSplit, path) -> None:
    """Write ``split`` whole in the canonical column layout."""
    columns = TRAIN_COLUMNS if split.kind == "train" else EVAL_COLUMNS
    _write_csv(path, columns, (
        (rec.id, rec.link, rec.heading, rec.article, rec.summary or "")[:len(columns)]
        for rec in split.records))


def write_summaries(path, rows) -> None:
    """Write ``(id, summary)`` rows whole as an ``id,Summary`` CSV."""
    _write_csv(path, SUMMARY_COLUMNS, rows)


@dataclass(frozen=True)
class CorpusStats:
    records: int
    mean_sentences_per_article: float
    mean_summary_words: float


def corpus_stats(split: DatasetSplit) -> CorpusStats:
    """Record count, mean sentences per article, mean summary words."""
    if not split.records:
        raise EmptySplit("cannot compute statistics of an empty split")
    sentence_counts = [
        len(segment.split_sentences(rec.article, split.language))
        for rec in split.records
    ]
    summaries = [rec.summary for rec in split.records if rec.summary]
    mean_summary = (
        sum(len(segment.tokenize_words(s)) for s in summaries) / len(summaries)
        if summaries
        else 0.0
    )
    return CorpusStats(
        records=len(split.records),
        mean_sentences_per_article=sum(sentence_counts) / len(sentence_counts),
        mean_summary_words=mean_summary,
    )
