"""ILSUM-style CSV ingestion and corpus statistics.

Dataset files are UTF-8 CSV with RFC-style quoting (articles contain
commas and newlines).  Train files carry ``id,Link,Heading,Article,
Summary``; validation and test files carry ``id,Link,Heading,Article``.
"""

import csv
import sys
from contextlib import contextmanager
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
    kind: str
    language: str
    records: tuple[ArticleRecord, ...]

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

    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: file has no header row") from None
        index = {}
        for pos, name in enumerate(header):
            index.setdefault(name.strip(), pos)

        required = ["id", "Article"] + (["Summary"] if kind == "train" else [])
        for name in required:
            if name not in index:
                raise MissingColumn(f"{path}: required column {name!r} is missing")

        def cell(row, name):
            pos = index.get(name)
            if pos is None or pos >= len(row):
                return ""
            return row[pos]

        records = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            rec_id = cell(row, "id").strip()
            if not rec_id:
                raise EmptyArticle(f"{path}:{lineno}: row has a blank id")
            if rec_id in seen:
                raise DuplicateId(f"{path}:{lineno}: duplicate id {rec_id!r}")
            seen.add(rec_id)
            article = cell(row, "Article")
            if not article.strip():
                raise EmptyArticle(f"{path}:{lineno}: blank Article for id {rec_id!r}")
            summary = cell(row, "Summary") if "Summary" in index else ""
            if kind == "train" and not summary.strip():
                raise MissingGoldSummary(
                    f"{path}:{lineno}: train row {rec_id!r} has no Summary"
                )
            records.append(
                ArticleRecord(
                    id=rec_id,
                    article=article,
                    link=cell(row, "Link"),
                    heading=cell(row, "Heading"),
                    summary=summary if summary.strip() else None,
                )
            )

    return DatasetSplit(kind=kind, language=language, records=tuple(records))


def save_csv(split: DatasetSplit, path) -> None:
    """Write ``split`` back out in the canonical column layout."""
    columns = TRAIN_COLUMNS if split.kind == "train" else EVAL_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in split.records:
            row = [rec.id, rec.link, rec.heading, rec.article]
            if split.kind == "train":
                row.append(rec.summary or "")
            writer.writerow(row)


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
