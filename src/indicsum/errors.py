"""Exception types shared across the toolkit."""


class IndicSumError(Exception):
    """Base class for every toolkit error."""


# --- corpus ---------------------------------------------------------------

class MissingColumn(IndicSumError):
    """A required CSV header column is absent."""


class DuplicateId(IndicSumError):
    """Two rows in one split share an id."""


class EmptyArticle(IndicSumError):
    """A row has a blank Article field."""


class EmptySplit(IndicSumError):
    """An operation needs at least one record."""


class MismatchedIds(IndicSumError):
    """Candidate summaries and references do not cover the same ids."""


class MissingGoldSummary(IndicSumError):
    """A record that must carry a gold summary does not."""


class BadEncoding(IndicSumError):
    """An input file is not UTF-8 text."""


# --- backends / extractive ------------------------------------------------

class BackendUnavailable(IndicSumError):
    """The adapter process or endpoint cannot be reached or misbehaved."""


class InvalidSpec(IndicSumError):
    """A training request is inconsistent with the backend or spec."""


class EmptyInput(IndicSumError):
    """A summarizer or sentence selector was given nothing to work on."""


# --- crosslingual ---------------------------------------------------------

class TranslationFailure(IndicSumError):
    """Translation still failing after the bounded retries."""


class EmptySummary(IndicSumError):
    """back_map was given a blank summary."""


class NoAlignment(IndicSumError):
    """A summary sentence matched no mapping entry above the threshold."""

    def __init__(self, message, sentence=None, best_score=None):
        super().__init__(message)
        self.sentence = sentence
        self.best_score = best_score


# --- rouge ----------------------------------------------------------------

class InvalidN(IndicSumError):
    """n-gram order below 1."""


class EmptyCorpus(IndicSumError):
    """Corpus-level scoring needs at least one pair."""


# --- experiments ----------------------------------------------------------

class ConfigError(IndicSumError):
    """An experiment configuration is invalid or unusable."""


class EmptyReport(IndicSumError):
    """render_report called with no run records."""
