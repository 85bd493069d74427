"""Multilingual news-article summarization experiment toolkit.

Covers the full experiment loop for English, Hindi and Gujarati news
corpora: CSV ingestion, dataset augmentation, out-of-process model
adapters with a deterministic lead baseline, a translate/summarize/
back-map cross-lingual pipeline, exact ROUGE-1/2/4 scoring and a
config-driven experiment runner.
"""

from .backends import (
    GenerationParams,
    LeadBaselineBackend,
    PRESETS,
    SummarizerSpec,
    baseline_handle,
    fine_tune,
    get_preset,
    lead_baseline,
    summarize,
)
from .corpus import ArticleRecord, DatasetSplit, load_csv
from .crosslingual import back_map, build_mapping, pipeline_summarize
from .errors import IndicSumError
from .experiments import ExperimentConfig, RunRecord, render_report, run_experiment
from .extractive import select_summary
from .rouge import RougeScore, corpus_rouge, rouge_n
from .segment import split_sentences, tokenize_words

__version__ = "0.1.0"

__all__ = [
    "ArticleRecord",
    "DatasetSplit",
    "ExperimentConfig",
    "GenerationParams",
    "IndicSumError",
    "LeadBaselineBackend",
    "PRESETS",
    "RougeScore",
    "RunRecord",
    "SummarizerSpec",
    "__version__",
    "back_map",
    "baseline_handle",
    "build_mapping",
    "corpus_rouge",
    "fine_tune",
    "get_preset",
    "lead_baseline",
    "load_csv",
    "pipeline_summarize",
    "render_report",
    "rouge_n",
    "run_experiment",
    "select_summary",
    "split_sentences",
    "summarize",
    "tokenize_words",
]
