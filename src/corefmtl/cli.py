"""Command line interface: train, predict, score, analyze-errors.

Exit codes: 0 success, 1 usage error, 2 data, configuration or checkpoint
error, 3 numeric failure during training.
"""

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config, render_config
from .corpus import (CorpusError, Document, apply_sidecar, load_documents,
                     prediction_to_document, read_sidecar, write_conll, write_jsonl)
from .encoder import CACHE_ENV_VAR, EncoderCapabilityError
from .error_analysis import contrast, format_contrast
from .evaluation import EvaluationError, evaluate, format_report, report_to_dict
from .inference import predict_document
from .training import (Checkpoint, CheckpointError, NumericError,
                       model_from_checkpoint, train)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_corpus(paths, sidecar_paths) -> list[Document]:
    docs: list[Document] = []
    seen = set()
    for path in paths:
        for doc in load_documents(path):
            if doc.doc_key in seen:
                raise CorpusError(f"duplicate document key {doc.doc_key} in {path}")
            seen.add(doc.doc_key)
            docs.append(doc)
    rows = []
    for path in sidecar_paths or []:
        rows.extend(read_sidecar(Path(path)))
    if rows:
        docs = apply_sidecar(docs, rows)
    return docs


def cmd_train(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["training.seed"] = args.seed
    cfg = load_config(args.config, args.preset, overrides)
    train_docs = _load_corpus(args.corpus, args.sidecar)
    dev_docs = _load_corpus(args.dev, args.dev_sidecar) if args.dev else None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as metrics_file:
        def log_fn(record):
            metrics_file.write(json.dumps(record) + "\n")
            if "dev_avg_f1" in record:
                print(f"step {record['step']}: dev avg F1 "
                      f"{record['dev_avg_f1']:.4f}")

        result = train(train_docs, cfg, dev_docs=dev_docs, log_fn=log_fn)

    ckpt_path = out_dir / "checkpoint.npz"
    result.checkpoint.save(ckpt_path)
    (out_dir / "config.ini").write_text(render_config(cfg), encoding="utf-8")
    last_loss = next((r["loss"] for r in reversed(result.records) if "loss" in r),
                     float("nan"))
    print(f"trained {cfg.steps} steps on {len(train_docs)} documents; "
          f"final loss {last_loss:.4f}")
    if result.best_step is not None:
        print(f"best dev avg F1 {result.best_avg_f1:.4f} at step {result.best_step}")
    print(f"checkpoint written to {ckpt_path}")
    return 0


def cmd_predict(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    docs = _load_corpus(args.corpus, args.sidecar)
    threshold = args.threshold
    if args.no_singletons:
        threshold = 2.0  # no probability reaches this; nothing is emitted
    pred_docs = []
    for doc in docs:
        pred = predict_document(model, doc, threshold=threshold)
        pred_docs.append(prediction_to_document(pred, doc))
    out = Path(args.out)
    out.write_text(write_jsonl(pred_docs), encoding="utf-8")
    print(f"wrote predictions for {len(pred_docs)} documents to {out}")
    if args.conll:
        Path(args.conll).write_text(
            write_conll(pred_docs, include_singletons=True), encoding="utf-8")
        print(f"wrote CoNLL to {args.conll}")
    return 0


def cmd_score(args) -> int:
    gold = _load_corpus(args.key, args.sidecar)
    response = _load_corpus(args.response, [])
    report = evaluate(gold, response, keep_singletons=args.keep_singletons,
                      mention_mode=args.mention_mode)
    print(format_report(report))
    if args.json:
        Path(args.json).write_text(json.dumps(report_to_dict(report), indent=2),
                                   encoding="utf-8")
    return 0


def cmd_analyze_errors(args) -> int:
    gold = _load_corpus(args.gold, args.sidecar)
    preds_a = _load_corpus(args.system_a, [])
    preds_b = _load_corpus(args.system_b, [])
    result = contrast(gold, preds_a, preds_b)
    print(format_contrast(result, label_a=args.label_a, label_b=args.label_b))
    if args.json:
        payload = {
            "only_a": [{"doc_key": r.doc_key, "span": list(r.span),
                        "class": r.error_class, "kind": r.kind}
                       for r in result.only_a],
            "only_b": [{"doc_key": r.doc_key, "span": list(r.span),
                        "class": r.error_class, "kind": r.kind}
                       for r in result.only_b],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="corefmtl",
        description="Span-based coreference with singleton, entity type, and "
                    "information status learning.",
        epilog=f"Pretrained encoder assets are looked up under ${CACHE_ENV_VAR}.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("corpus", nargs="+", help="training files (.conll/.jsonl)")
    p_train.add_argument("--config", help="INI config file")
    p_train.add_argument("--preset", help="task weight preset "
                         "(baseline, sg, sg_ent, sg_ent_infs)")
    p_train.add_argument("--seed", type=int, help="override training.seed")
    p_train.add_argument("--sidecar", action="append",
                         help="mention annotation TSV (repeatable)")
    p_train.add_argument("--dev", action="append",
                         help="development files (repeatable)")
    p_train.add_argument("--dev-sidecar", action="append")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="run a trained model")
    p_pred.add_argument("corpus", nargs="+")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--sidecar", action="append")
    p_pred.add_argument("--out", required=True, help="predictions (.jsonl)")
    p_pred.add_argument("--conll", help="also write CoNLL here")
    p_pred.add_argument("--threshold", type=float, default=0.5,
                        help="singleton emission probability threshold")
    p_pred.add_argument("--no-singletons", action="store_true",
                        help="emit clusters only")
    p_pred.set_defaults(func=cmd_predict)

    p_score = sub.add_parser("score", help="score predictions against a key")
    p_score.add_argument("key", nargs=1)
    p_score.add_argument("response", nargs=1)
    p_score.add_argument("--sidecar", action="append",
                         help="sidecar for the key side")
    p_score.add_argument("--keep-singletons", action="store_true")
    p_score.add_argument("--mention-mode", choices=("coreferent", "all"),
                         default="all")
    p_score.add_argument("--json", help="write the report as JSON here")
    p_score.set_defaults(func=cmd_score)

    p_err = sub.add_parser("analyze-errors",
                           help="contrast the link errors of two systems")
    p_err.add_argument("gold", nargs=1)
    p_err.add_argument("system_a", nargs=1)
    p_err.add_argument("system_b", nargs=1)
    p_err.add_argument("--sidecar", action="append")
    p_err.add_argument("--label-a", default="A")
    p_err.add_argument("--label-b", default="B")
    p_err.add_argument("--json")
    p_err.set_defaults(func=cmd_analyze_errors)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (CorpusError, ConfigError, CheckpointError, EvaluationError,
            EncoderCapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
