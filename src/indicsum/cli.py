"""Command-line interface.

One subcommand per pipeline stage: prepare, augment, train, summarize,
translate-map, evaluate, report, plus ``run`` for a whole config-driven
experiment.  ``train``, ``summarize`` and ``translate-map`` run through
the same backend, generation and per-record helpers as ``run``.  All
commands exit nonzero with a one-line message on toolkit errors.
"""

import argparse
import csv
import os
import sys
from contextlib import closing, nullcontext

from . import augment as augment_mod
from . import corpus, experiments
from .backends import TrainedHandle, fine_tune, get_preset
from .crosslingual import DEFAULT_THRESHOLD, TranslationCache
from .errors import IndicSumError, MissingColumn, MissingGoldSummary
from .rouge import DEFAULT_ORDERS, corpus_rouge
from .segment import LANGUAGES

__all__ = ["main"]


def _cmd_prepare(args) -> int:
    split = corpus.load_csv(args.csv, args.split, args.lang)
    if args.out:
        corpus.save_csv(split, args.out)
    stats = corpus.corpus_stats(split)
    print(
        f"{args.csv}: {stats.records} records,"
        f" {stats.mean_sentences_per_article:.1f} sentences/article,"
        f" {stats.mean_summary_words:.1f} summary words"
    )
    return 0


def _cmd_augment(args) -> int:
    split = corpus.load_csv(args.csv, args.split, args.lang)
    if not args.right_shift and args.noise_rate is None:
        print("nothing to do: pass --right-shift and/or --noise-rate",
              file=sys.stderr)
        return 2
    out_split = augment_mod.augment_split(
        split,
        shift=args.right_shift,
        noise_rate=args.noise_rate,
        seed=args.seed,
        append=not args.replace,
    )
    corpus.save_csv(out_split, args.out)
    print(f"{args.out}: {len(out_split)} records ({len(split)} originals)")
    return 0


def _cmd_train(args) -> int:
    preset = get_preset(args.preset)
    if preset.spec is None:
        print(f"preset {args.preset!r} is a pipeline preset; nothing to train",
              file=sys.stderr)
        return 2
    language = args.lang or preset.language
    split = corpus.load_csv(args.train, "train", language)
    with closing(experiments.open_backend(args.adapter, args.socket,
                                          language)) as backend:
        handle = fine_tune(backend, split, preset.spec)
    print(f"checkpoint: {handle.checkpoint}")
    return 0


def _cmd_summarize(args) -> int:
    """``summarize``, or ``translate-map`` when ``args.translator`` is set."""
    preset = get_preset(args.preset) if args.preset else None
    language = args.lang or (preset.language if preset else "english")
    split = corpus.load_csv(args.csv, args.split, language)
    translator = None
    if args.translator:
        translator = experiments.make_translator(args.translator, language)
    generation = experiments.generation_params(preset, args.max_tokens)
    lock = nullcontext()
    if args.cache:
        # The lock run_experiment holds over its cache: one writer per file.
        cache_dir = os.path.dirname(os.path.abspath(args.cache))
        os.makedirs(cache_dir, exist_ok=True)
        lock = experiments.directory_lock(cache_dir)
    with lock, closing(experiments.open_backend(
        args.adapter, args.socket, "english" if translator else language,
    )) as backend:
        cache = TranslationCache(args.cache) if args.cache else None
        handle = TrainedHandle(backend=backend, checkpoint=args.checkpoint)
        rows = [(rec.id, summary) for rec, summary in experiments.summarize_split(
            split, handle, generation, translator=translator, cache=cache,
            threshold=args.threshold,
        )]
    experiments.write_summaries(args.out, rows)
    print(f"{args.out}: {len(rows)} summaries")
    return 0


def _load_candidates(path) -> dict:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for name in ("id", "Summary"):
            if name not in fields:
                raise MissingColumn(f"{path}: required column {name!r} is missing")
        return {row["id"]: row["Summary"] for row in reader}


def _cmd_evaluate(args) -> int:
    candidates = _load_candidates(args.cands)
    refs = corpus.load_csv(args.refs, args.split, args.lang)
    pairs = []
    for rec in refs:
        if rec.id not in candidates:
            continue
        if rec.summary is None:
            raise MissingGoldSummary(f"reference {rec.id!r} has no Summary")
        pairs.append((candidates[rec.id], rec.summary))
    scores = corpus_rouge(pairs, DEFAULT_ORDERS)
    print(f"{len(pairs)} scored pairs")
    for n in DEFAULT_ORDERS:
        s = scores[n]
        print(
            f"ROUGE-{n}: precision {s.precision:.4f}"
            f" recall {s.recall:.4f} f1 {s.f1:.4f}"
        )
    return 0


def _cmd_report(args) -> int:
    runs = experiments.load_runs(args.runs)
    print(experiments.render_report(runs, format=args.format), end="")
    return 0


def _cmd_run(args) -> int:
    config = experiments.ExperimentConfig.from_file(args.config)
    run = experiments.run_experiment(config)
    print(f"config hash: {run.config_hash}")
    print(experiments.render_report([run]), end="")
    return 0


def _add_adapter_flags(parser) -> None:
    parser.add_argument("--adapter", help="adapter command line (stdio transport)")
    parser.add_argument("--socket", help="adapter address as host:port")
    parser.add_argument("--checkpoint", help="adapter checkpoint id to use")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indicsum",
        description="Multilingual news summarization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="validate a CSV split and show stats")
    p.add_argument("csv")
    p.add_argument("--lang", required=True, choices=LANGUAGES)
    p.add_argument("--split", required=True, choices=corpus.SPLIT_KINDS)
    p.add_argument("--out", help="write the canonical CSV here")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("augment", help="expand a split with augmented copies")
    p.add_argument("csv")
    p.add_argument("--lang", required=True, choices=LANGUAGES)
    p.add_argument("--split", default="train", choices=corpus.SPLIT_KINDS)
    p.add_argument("--right-shift", action="store_true")
    p.add_argument("--noise-rate", type=float)
    p.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    p.add_argument("--replace", action="store_true",
                   help="drop the originals, keep only augmented copies")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="fine-tune an adapter backend")
    p.add_argument("--preset", required=True)
    p.add_argument("--train", required=True, help="train split CSV")
    p.add_argument("--lang", choices=LANGUAGES)
    _add_adapter_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("summarize", help="summarize a split to a CSV")
    p.add_argument("csv")
    p.add_argument("--split", default="validation", choices=corpus.SPLIT_KINDS)
    p.add_argument("--lang", choices=LANGUAGES)
    p.add_argument("--preset")
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--out", required=True)
    _add_adapter_flags(p)
    p.set_defaults(func=_cmd_summarize, translator=None, cache=None,
                   threshold=DEFAULT_THRESHOLD)

    p = sub.add_parser("translate-map",
                       help="translate, summarize in English, back-map")
    p.add_argument("csv")
    p.add_argument("--split", default="validation", choices=corpus.SPLIT_KINDS)
    p.add_argument("--lang", default="gujarati", choices=LANGUAGES)
    p.add_argument("--translator", default="identity",
                   help="identity, table:<tsv> or live:<url>")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--max-tokens", type=int, default=85)
    p.add_argument("--cache", help="persistent translation cache (JSONL)")
    p.add_argument("--out", required=True)
    _add_adapter_flags(p)
    p.set_defaults(func=_cmd_summarize, preset=None)

    p = sub.add_parser("evaluate", help="score candidate summaries")
    p.add_argument("cands", help="CSV with id,Summary columns")
    p.add_argument("--refs", required=True, help="reference split CSV")
    p.add_argument("--lang", required=True, choices=LANGUAGES)
    p.add_argument("--split", default="validation", choices=corpus.SPLIT_KINDS)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="render a results table from a run log")
    p.add_argument("--runs", required=True, help="runs.jsonl path")
    p.add_argument("--format", default="table", choices=("table", "csv"))
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IndicSumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
