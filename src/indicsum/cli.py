"""Command-line interface.

One subcommand per pipeline stage: prepare, augment, train, summarize,
translate-map, evaluate, report, plus ``run`` for a whole config-driven
experiment.  ``train``, ``summarize`` and ``translate-map`` share
``run``'s ``experiments.resolve_settings`` and ``run_setup``;
``summarize`` and ``translate-map`` add only ``--checkpoint`` and
``--out``.  Every CSV is read and written by ``corpus``: ``evaluate``
reads its candidates by ``load_csv``'s rules, and each ``--out`` CSV is
written whole or not at all.  All commands exit nonzero with a
one-line message on toolkit errors, on files they cannot read or
write, and when stopped by SIGINT or SIGTERM.
"""

import argparse
import sys

from . import augment as augment_mod
from . import corpus, experiments
from .backends import DEFAULT_SEED, PRESETS, TrainedHandle
from .crosslingual import DEFAULT_THRESHOLD
from .errors import IndicSumError, MismatchedIds, MissingGoldSummary
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
    if not args.right_shift and args.noise_rate is None:
        print("nothing to do: pass --right-shift and/or --noise-rate",
              file=sys.stderr)
        return 2
    if args.noise_rate is not None:
        experiments.check_unit_interval("noise rate", args.noise_rate)
    split = corpus.load_csv(args.csv, args.split, args.lang)
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
    settings = experiments.resolve_settings(args)
    if settings.spec is None:
        print(f"preset {args.preset!r} is a pipeline preset; nothing to train",
              file=sys.stderr)
        return 2
    with experiments.run_setup(settings.language, args.adapter,
                               args.socket) as (backend, _):
        handle = experiments.train_on_file(backend, settings.spec, args.train,
                                           settings.language, settings.augmentation)
    print(f"checkpoint: {handle.checkpoint}")
    return 0


def _cmd_summarize(args) -> int:
    """``summarize``, or ``translate-map`` when ``args.translator`` is set."""
    settings = experiments.resolve_settings(args)
    split = corpus.load_csv(args.csv, args.split, settings.language)
    with experiments.run_setup(
        settings.language, args.adapter, args.socket,
        translator=args.translator, cache=args.cache,
    ) as (backend, summarize_split):
        handle = TrainedHandle(backend=backend, checkpoint=args.checkpoint)
        rows = [(rec.id, summary) for rec, summary in summarize_split(
            split, handle, settings.generation, threshold=args.threshold)]
    corpus.write_summaries(args.out, rows)
    print(f"{args.out}: {len(rows)} summaries")
    return 0


def _name_ids(ids) -> str:
    shown = 5
    names = ", ".join(repr(i) for i in ids[:shown])
    return names + (f" and {len(ids) - shown} more" if len(ids) > shown else "")


def _cmd_evaluate(args) -> int:
    candidates = corpus.load_summaries(args.cands)
    refs = corpus.load_csv(args.refs, args.split, args.lang)
    ref_ids = {rec.id for rec in refs}
    missing = [rec.id for rec in refs if rec.id not in candidates]
    extra = [cid for cid in candidates if cid not in ref_ids]
    problems = []
    if missing:
        problems.append(f"no candidate for reference ids {_name_ids(missing)}")
    if extra:
        problems.append(f"no reference for candidate ids {_name_ids(extra)}")
    if problems:
        raise MismatchedIds(f"{args.cands}: " + "; ".join(problems))
    for rec in refs:
        if rec.summary is None:
            raise MissingGoldSummary(f"reference {rec.id!r} has no Summary")
    scores = corpus_rouge((candidates[rec.id], rec.summary) for rec in refs)
    print(f"{len(refs)} scored pairs")
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


def _add_stage_options(parser) -> None:
    """The adapter flags, and the run settings no stage sets: a stage's
    arguments carry ``ExperimentConfig``'s names for ``resolve_settings``."""
    parser.add_argument("--adapter", help="adapter command line (stdio transport)")
    parser.add_argument("--socket",
                        help="adapter address as host:port ([::1]:port for IPv6)")
    parser.set_defaults(spec=None, seed=DEFAULT_SEED, augmentations=())


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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--replace", action="store_true",
                   help="drop the originals, keep only augmented copies")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="fine-tune an adapter backend")
    p.add_argument("--preset", required=True)
    p.add_argument("--train", required=True, help="train split CSV")
    p.add_argument("--lang", dest="language", choices=LANGUAGES)
    _add_stage_options(p)
    p.set_defaults(func=_cmd_train, pipeline=None, max_tokens=None,
                   threshold=DEFAULT_THRESHOLD)

    p = sub.add_parser("summarize", help="summarize a split to a CSV")
    p.add_argument("csv")
    p.add_argument("--split", default="validation", choices=corpus.SPLIT_KINDS)
    p.add_argument("--lang", dest="language", choices=LANGUAGES)
    p.add_argument("--preset")
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--checkpoint", help="adapter checkpoint id to use")
    p.add_argument("--out", required=True)
    _add_stage_options(p)
    p.set_defaults(func=_cmd_summarize, pipeline="direct", translator=None,
                   cache=None, threshold=DEFAULT_THRESHOLD)

    p = sub.add_parser("translate-map",
                       help="translate, summarize in English, back-map")
    p.add_argument("csv")
    p.add_argument("--split", default="validation", choices=corpus.SPLIT_KINDS)
    p.add_argument("--lang", dest="language", default="gujarati", choices=LANGUAGES)
    p.add_argument("--translator", default="identity",
                   help="identity, table:<tsv> or live:<url>")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--max-tokens", type=int,
                   default=PRESETS["gujarati-translate-map"].generation.max_tokens)
    p.add_argument("--cache", help="persistent translation cache (JSONL)")
    p.add_argument("--checkpoint", help="adapter checkpoint id to use")
    p.add_argument("--out", required=True)
    _add_stage_options(p)
    p.set_defaults(func=_cmd_summarize, pipeline="translate-map", preset=None)

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


def _terminate(signum, frame):
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    """Run one command; exit 1 with one ``error:`` line on a toolkit or
    file error, and 128 plus the signal's number on SIGINT or SIGTERM.
    SIGTERM unwinds as Ctrl-C does, so what the command opened (a
    spawned adapter, a partly written file) is closed or removed."""
    import signal

    parser = build_parser()
    args = parser.parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.func(args)
    except (IndicSumError, OSError) as exc:  # OSError: e.g. a missing input file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print("error: interrupted", file=sys.stderr)
        return 128 + (exc.args[0] if exc.args else signal.SIGINT)
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
