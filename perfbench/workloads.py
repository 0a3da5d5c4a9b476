"""The benchmark's workloads: one closed loop, one document at a time.

A run makes its inputs from the seed, takes the two peak-memory figures
outside the timed loop, writes the corpus files for the commands, then
repeats whole rounds of the same operations while the next round still
fits in the run length. Set-up is timed again before every round:

  train     `train()` for a fixed number of steps;
  predict   `predict_document` on every held-out document;
  commands  `corefmtl score` (singletons dropped, then kept) and
            `corefmtl analyze-errors`, in-process on CoNLL files.

Afterwards the outputs are checked against the references in
reference.py. With tracing on, a traced round follows the untraced ones
and the per-layer figures come from it.
"""

import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import re
import shutil
import statistics
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import inputs
import reference
import tracing
from corefmtl import autodiff as ad
from corefmtl import cli, corpus, evaluation, inference, mtl
from corefmtl.encoder import EncoderConfig, build_vocab
from corefmtl.error_analysis import contrast
from corefmtl.model import MtlCorefModel
from corefmtl.mtl import PRESET_WEIGHTS
from corefmtl.training import TrainConfig, train

SETUP_REPS = 2   # set-ups timed before each round
SMALL_MODEL = dict(encoder=EncoderConfig(dim=32, vocab_size=256, window=1),
                   feature_dim=8, hidden=64, ffnn_depth=1, dropout=0.0,
                   max_span_width=4, prune_ratio=0.8, top_antecedents=20,
                   task_learning_rate=3e-3, encoder_learning_rate=3e-3)


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict                  # TrainConfig fields besides steps and seed
    steps: int                   # training steps per round
    train_docs: tuple            # (count, tokens per document)
    heldout_docs: tuple          # (count, tokens per document)
    empty_docs: int = 0          # zero-token held-out documents
    corpus_docs: tuple = (0, 0)  # key corpus of the commands; (0, 0) uses the
                                 # held-out documents that have tokens


# long-doc's commands score a corpus of long documents with many clusters,
# so the corpus, metric and error-analysis layers work hard there too
WORKLOADS = {
    "long-doc": Workload(
        "long-doc",
        model=dict(hidden=150, dropout=0.3,
                   task_weights=PRESET_WEIGHTS["sg_ent_infs"]),
        steps=2, train_docs=(2, 1000), heldout_docs=(2, 2000),
        corpus_docs=(20, 1500)),
    "short-doc": Workload(
        "short-doc",
        model=dict(SMALL_MODEL, task_weights=PRESET_WEIGHTS["sg_ent_infs"]),
        steps=150, train_docs=(100, 50), heldout_docs=(400, 50), empty_docs=4),
}


# -- inputs ---------------------------------------------------------------------


@dataclass
class Inputs:
    train_docs: list
    heldout: list         # includes the zero-token documents
    key: list             # key corpus of the commands
    response: list        # the key with planted link errors
    planted: dict         # planted errors per kind


def make_inputs(wl: Workload, seed: int) -> Inputs:
    n, tokens = wl.train_docs
    train_docs = inputs.make_corpus(seed, "train", n, tokens)
    n, tokens = wl.heldout_docs
    heldout = inputs.make_corpus(seed, "heldout", n, tokens)
    # zero-token documents sit at fixed, evenly spaced positions
    for i in range(wl.empty_docs):
        heldout.insert((i + 1) * len(heldout) // (wl.empty_docs + 1),
                       inputs.empty_document(f"heldout/empty_{i}"))
    n, tokens = wl.corpus_docs
    key = (inputs.make_corpus(seed, "key", n, tokens) if n
           else [d for d in heldout if d.num_tokens])
    rng = inputs.named_stream(seed, "plant")
    response = []
    planted = {"missing_link": 0, "wrong_link": 0, "spurious_link": 0}
    for doc in key:
        resp, counts = inputs.plant_errors(doc, rng)
        response.append(resp)
        for kind, c in counts.items():
            planted[kind] += c
    return Inputs(train_docs, heldout, key, response, planted)


def train_config(wl: Workload, seed: int, steps: int | None = None) -> TrainConfig:
    return TrainConfig(steps=steps or wl.steps, seed=seed, eval_every=0,
                       select="final", **wl.model)


def setup_once(wl: Workload, seed: int) -> tuple[float, Inputs]:
    """Input generation, vocabulary and model construction, timed."""
    gc.collect()
    start = perf_counter()
    data = make_inputs(wl, seed)
    cfg = train_config(wl, seed)
    vocab = build_vocab(data.train_docs, cfg.encoder.vocab_size)
    genres = tuple(sorted({d.genre for d in data.train_docs}))
    MtlCorefModel(cfg.model_config(genres), seed, vocab)
    return perf_counter() - start, data


# -- one round --------------------------------------------------------------------


@dataclass
class Capture:
    """What the checks need from one forward pass, copied out of it."""

    kept_spans: list
    shortlists: list
    scores: np.ndarray
    singleton_probs: np.ndarray | None


def capture_forward(model: MtlCorefModel, into: list):
    """Shadow the model's forward so each prediction leaves a Capture in
    `into`. Only the first round captures; the copy runs inside its timed
    predict calls and is a few small arrays against a full forward pass."""
    forward = model.forward

    def capturing(doc, *args, **kwargs):
        fp = forward(doc, *args, **kwargs)
        probs = None
        if "singleton" in fp.logits:
            logits = fp.logits["singleton"].data
            ex = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = ex[:, 1] / ex.sum(axis=1)
        into.append(Capture(fp.kept_spans, fp.shortlists, fp.scores.data.copy(), probs))
        return fp

    model.forward = capturing


@dataclass
class Round:
    train_s: float = 0.0
    step_tokens: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    predict_s: float = 0.0
    doc_tokens: list = field(default_factory=list)   # of the documents in doc_ms
    doc_ms: list = field(default_factory=list)
    predictions: list = field(default_factory=list)   # one per held-out doc
    captures: dict = field(default_factory=dict)      # doc_key -> Capture
    command_ms: dict = field(default_factory=dict)    # command kind -> ms
    reports: list = field(default_factory=list)       # JSON outputs of the commands
    attempted: int = 0
    failed: int = 0
    exit_codes: list = field(default_factory=list)
    step_windows: list = field(default_factory=list)


def run_round(wl: Workload, seed: int, data: Inputs, files: dict,
              tracer: tracing.Tracer | None = None, capture: bool = False) -> Round:
    # every round starts from the same collector state: garbage from earlier
    # rounds is gone and what survives (inputs, earlier results) is frozen,
    # so the program's collections scan only what the round itself makes
    gc.collect()
    gc.freeze()
    r = Round()
    cfg = train_config(wl, seed)
    tokens_of = {d.doc_key: d.num_tokens for d in data.train_docs}
    stamps = []

    def log_fn(record):
        stamps.append(perf_counter())
        r.losses.append(record["loss"])
        r.step_tokens.append(tokens_of[record["doc_key"]])
        if tracer is not None:
            tracer.group = ("step", record["step"] + 1)

    if tracer is not None:
        tracer.group = ("step", 1)
    start = perf_counter()
    result = train(data.train_docs, cfg, log_fn=log_fn)
    r.train_s = perf_counter() - start
    # step 1 also carries the vocabulary and model construction of train()
    r.step_windows = list(zip([start] + stamps, stamps))
    r.step_ms = [(b - a) * 1e3 for a, b in r.step_windows]
    r.attempted += len(stamps)

    model = result.model
    captured: list[Capture] = []
    if capture:
        capture_forward(model, captured)
    for i, doc in enumerate(data.heldout):
        if tracer is not None:
            tracer.group = ("doc", i)
        r.attempted += 1
        start = perf_counter()
        try:
            pred = inference.predict_document(model, doc)
        except ValueError as exc:
            # zero-token input: the program raises instead of returning an
            # empty prediction; the document counts as failed
            r.predict_s += perf_counter() - start
            r.failed += 1
            if doc.num_tokens:
                print(f"FAILED: predicting {doc.doc_key}: {exc!r}")
            r.predictions.append(inference.PredictionResult(doc.doc_key, []))
            continue
        elapsed = perf_counter() - start
        r.predict_s += elapsed
        r.doc_ms.append(elapsed * 1e3)
        r.doc_tokens.append(doc.num_tokens)
        r.predictions.append(pred)
        if captured:
            r.captures[doc.doc_key] = captured.pop()

    for kind, argv in commands(files):
        if tracer is not None:
            tracer.group = ("command", kind)
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        r.command_ms[kind] = (perf_counter() - start) * 1e3
        r.attempted += 1
        r.failed += code != 0
        r.exit_codes.append(code)
        if code == 0:
            r.reports.append((kind, json.loads(Path(argv[argv.index("--json") + 1])
                                               .read_text(encoding="utf-8"))))
    return r


def fast_rate(ops) -> float:
    """Tokens per second of one instance of each operation, each timed by
    the fastest decile of its repeats; ops holds (tokens, [ms, ...])."""
    return sum(t for t, _ in ops) * 1e3 / sum(float(np.percentile(ms, 10)) for _, ms in ops)


def ops_s(r: Round) -> float:
    """Seconds spent in the round's operations: train, predict, commands."""
    return r.train_s + r.predict_s + sum(r.command_ms.values()) / 1e3


def write_corpus(work: Path, key: list, response: list) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    files = {"key": work / "key.conll", "sidecar": work / "key.tsv",
             "system": work / "key_system.conll", "response": work / "response.conll"}
    files["key"].write_text(corpus.write_conll(key), encoding="utf-8")
    files["sidecar"].write_text(corpus.write_sidecar(key), encoding="utf-8")
    files["system"].write_text(corpus.write_conll(key, include_singletons=True),
                               encoding="utf-8")
    files["response"].write_text(corpus.write_conll(response, include_singletons=True),
                                 encoding="utf-8")
    return {name: str(path) for name, path in files.items()}


def commands(files: dict) -> list:
    key, side, resp = files["key"], files["sidecar"], files["response"]
    out = os.path.dirname(key)
    return [
        ("score_dropped", ["score", key, resp, "--sidecar", side,
                           "--json", f"{out}/score_dropped.json"]),
        ("score_kept", ["score", key, resp, "--sidecar", side, "--keep-singletons",
                        "--json", f"{out}/score_kept.json"]),
        ("analyze", ["analyze-errors", key, files["system"], resp, "--sidecar", side,
                     "--label-a", "key", "--label-b", "response",
                     "--json", f"{out}/analyze.json"]),
    ]


# -- peaks ------------------------------------------------------------------------------


def peak_mib(fn, *args):
    """(tracemalloc peak of fn(*args) in MiB, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20, result


def measure_peaks(wl: Workload, seed: int, data: Inputs) -> tuple[float, float]:
    """tracemalloc peaks of one training step on the largest training
    document and of predicting the largest held-out document."""
    largest_train = max(data.train_docs, key=lambda d: d.num_tokens)
    largest_heldout = max(data.heldout, key=lambda d: d.num_tokens)
    train_peak, result = peak_mib(train, [largest_train], train_config(wl, seed, steps=1))
    predict_peak, _ = peak_mib(inference.predict_document, result.model, largest_heldout)
    return train_peak, predict_peak


# -- checks ---------------------------------------------------------------------------


def check_predictions(wl: Workload, data: Inputs, r: Round) -> list[str]:
    """Structural properties, greedy decoding and the coreference loss of
    every captured forward pass."""
    cfg = train_config(wl, 0)
    problems = []
    for doc, pred in zip(data.heldout, r.predictions):
        cap = r.captures.get(doc.doc_key)
        if cap is None:
            continue
        kept = [s.span for s in cap.kept_spans]
        sentence_of = [si for si, sent in enumerate(doc.sentences) for _ in sent]
        for p in reference.check_forward(kept, sentence_of, cap.shortlists,
                                         cap.scores, doc.num_tokens, cfg.prune_ratio,
                                         cfg.top_antecedents):
            problems.append(f"{doc.doc_key}: {p}")
        links = reference.greedy_links(cap.scores, cap.shortlists)
        groups = reference.link_clusters(links)
        clusters = sorted([kept[i] for i in g] for g in groups)
        if clusters != sorted(pred.clusters):
            problems.append(f"{doc.doc_key}: clusters differ from the greedy decode")
        if cap.singleton_probs is not None:
            linked = {i for g in groups for i in g}
            singles = sorted(kept[i] for i in range(len(kept))
                             if i not in linked and cap.singleton_probs[i] >= 0.5)
            if singles != sorted(pred.singletons):
                problems.append(f"{doc.doc_key}: singletons differ from the reference")
        num_slots = cap.scores.shape[1] - 1
        mask = reference.gold_mask(kept, cap.shortlists, doc.gold_clusters, num_slots)
        expected = reference.coref_loss(cap.scores, mask)
        got = mtl.coref_loss_from_matrix(
            ad.constant(cap.scores),
            mtl.gold_antecedent_mask(cap.kept_spans, cap.shortlists, doc.gold_clusters,
                                     num_slots)).item()
        if not np.isclose(got, expected, rtol=1e-9, atol=1e-9):
            problems.append(f"{doc.doc_key}: coref loss {got!r} != reference {expected!r}")
    return problems


def _views(doc) -> tuple:
    spans = [m.span for m in doc.gold_mentions]
    return reference.document_view(doc.gold_clusters, spans), spans


def _prediction_views(pred) -> tuple:
    spans = pred.mention_spans()
    return reference.document_view(pred.clusters, spans), spans


def compare_report(report: dict, expected: dict, where: str) -> list[str]:
    problems = []
    for name in ("muc", "b_cubed", "ceaf_phi4", "markable_detection"):
        got = (report[name]["precision"], report[name]["recall"], report[name]["f1"])
        if not np.allclose(got, expected[name], rtol=0, atol=1e-9):
            problems.append(f"{where}: {name} {got} != reference {expected[name]}")
    if abs(report["avg_f1"] - expected["avg_f1"]) > 1e-9:
        problems.append(f"{where}: avg_f1 differs from the reference")
    return problems


def check_commands(data: Inputs, r: Round, files: dict) -> list[str]:
    problems = []
    if any(code != 0 for code in r.exit_codes):
        problems.append(f"command exit codes {sorted(set(r.exit_codes))}")
    key, response = data.key, data.response
    rows = [(kv, rv, ks, rs) for (kv, ks), (rv, rs) in
            zip(map(_views, key), map(_views, response))]
    reports = dict(r.reports)
    if len(reports) < 3:
        return problems
    for kind, keep in (("score_dropped", False), ("score_kept", True)):
        expected = reference.corpus_scores(rows, keep_singletons=keep)
        problems += compare_report(reports[kind], expected, kind)

    errors = []
    for doc, resp in zip(key, response):
        errors += [(doc.doc_key, span, kind) for span, kind in reference.link_errors(
            doc.gold_clusters, [m.span for m in doc.gold_mentions],
            resp.gold_clusters)]
    analyze = reports["analyze"]
    if analyze["only_a"]:
        problems.append(f"analyze-errors: {len(analyze['only_a'])} errors for a "
                        f"system identical to the key")
    got = sorted((e["doc_key"], tuple(e["span"]), e["kind"]) for e in analyze["only_b"])
    if got != sorted(errors):
        problems.append("analyze-errors: response errors differ from the reference")
    kinds = {k: sum(1 for e in analyze["only_b"] if e["kind"] == k)
             for k in data.planted}
    if kinds != data.planted:
        problems.append(f"analyze-errors: per-kind counts {kinds} != planted "
                        f"{data.planted}")

    # A = B cancels every error
    same = contrast(key, response, response)
    if same.only_a or same.only_b:
        problems.append("analyze-errors: A = B leaves errors uncancelled")

    # the key corpus survives a write/parse round trip
    parsed = corpus.apply_sidecar(
        corpus.parse_conll(files["key"]), corpus.read_sidecar(files["sidecar"]))
    for doc, back in zip(key, parsed, strict=True):
        same_doc = (doc.sentences == back.sentences
                    and sorted(map(sorted, doc.gold_clusters)) ==
                    sorted(map(sorted, back.gold_clusters))
                    and _mention_rows(doc) == _mention_rows(back))
        if not same_doc:
            problems.append(f"{doc.doc_key}: CoNLL + sidecar round trip differs")
    return problems


def _mention_rows(doc) -> list:
    return sorted((m.span, m.entity_type, m.info_status, m.cluster_id is None)
                  for m in doc.gold_mentions)


def heldout_scores(data: Inputs, r: Round) -> tuple[dict, list[str]]:
    """evaluate() on the held-out set against the reference, both singleton
    modes; returns the reported figures and any disagreement."""
    problems = []
    rows = []
    for doc, pred in zip(data.heldout, r.predictions):
        (kv, ks), (rv, rs) = _views(doc), _prediction_views(pred)
        rows.append((kv, rv, ks, rs))
    figures = {}
    for keep in (False, True):
        report = evaluation.report_to_dict(
            evaluation.evaluate(data.heldout, r.predictions, keep_singletons=keep))
        problems += compare_report(report, reference.corpus_scores(rows, keep),
                                   f"evaluate(keep_singletons={keep})")
        if not keep:
            figures = {"heldout_avg_f1": report["avg_f1"],
                       "heldout_markable_f1": report["markable_detection"]["f1"]}
    return figures, problems


# -- the run -------------------------------------------------------------------------


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail(values) -> tuple[int, float] | None:
    """The highest of p95/p90/p75 with at least ten samples beyond it; none
    below forty samples."""
    n = len(values)
    for q in (95, 90, 75):
        if n >= 40 and n * (100 - q) / 100 >= 10:
            return q, float(np.percentile(values, q))
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    wl = WORKLOADS[workload]
    reference.self_test()
    work = root / ".bench_work" / f"{workload}-{os.getpid()}"
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        return _run(wl, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only if no other run is using it


def _run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
         work: Path) -> dict:
    _, data = setup_once(wl, seed)   # untimed: the first call also warms imports
    # also run when tracing: it warms the allocator the same way for both
    peaks = measure_peaks(wl, seed, data)

    files = write_corpus(work, data.key, data.response)

    # whole rounds while the next one still fits; with tracing, untraced
    # rounds fill half the time and one traced round follows. Set-up is
    # timed before each round, so its median samples the same spells of
    # the machine as the throughputs, not one moment at the start
    budget = seconds / 2 if trace else seconds
    rounds: list[Round] = []
    setups: list[float] = []
    start = perf_counter()
    last = 0.0
    while not rounds or perf_counter() - start + last <= budget:
        begin = perf_counter()
        setups += [setup_once(wl, seed)[0] for _ in range(SETUP_REPS)]
        rounds.append(run_round(wl, seed, data, files, capture=not rounds))
        last = perf_counter() - begin
    problems = []
    traced = tracer = None
    if trace:
        tracer = tracing.Tracer()
        stash = []
        tracer.install({"model.forward": lambda t, args, fp: stash.append(
            (args[1], fp.spans, fp.combined.data.copy(), fp.kept_spans,
             fp.shortlists))})
        try:
            write_corpus(work, data.key, data.response)   # to trace the writer
            traced = run_round(wl, seed, data, files, tracer)
        finally:
            tracer.uninstall()
        if traced.losses != rounds[0].losses:
            problems.append("traced step losses differ from the untraced run")
        recall = recall_totals(wl, stash)
        if recall["prune_mismatch"]:
            problems.append(f"{recall['prune_mismatch']} forward passes kept other "
                            f"spans than the reference pruning")
        rounds_checked = rounds + [traced]
    else:
        rounds_checked = rounds

    first = rounds[0]
    for r in rounds_checked[1:]:
        if r.losses != first.losses:
            problems.append("step losses differ between rounds")
        if [(p.clusters, p.singletons) for p in r.predictions] != \
                [(p.clusters, p.singletons) for p in first.predictions]:
            problems.append("predictions differ between rounds")
    problems += check_predictions(wl, data, first)
    problems += check_commands(data, first, files)
    figures, eval_problems = heldout_scores(data, first)
    problems += eval_problems
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")

    attempted = sum(r.attempted for r in rounds_checked)
    failed = sum(r.failed for r in rounds_checked)
    step_ms = [x for r in rounds for x in r.step_ms]
    doc_ms = [x for r in rounds for x in r.doc_ms]
    print(f"workload {wl.name} seed {seed}: {len(rounds)} timed round(s), "
          f"{attempted} operations attempted, {failed} failed")
    print(f"held-out avg F1 {figures['heldout_avg_f1']:.4f}, markable F1 "
          f"{figures['heldout_markable_f1']:.4f} (singletons dropped)")
    for label, values in (("train step", step_ms), ("predict doc", doc_ms)):
        t = tail(values)
        print(f"{label}: {len(values)} samples, median {statistics.median(values):.3f} ms"
              + (f", p{t[0]} {t[1]:.3f} ms" if t else ""))
    # Rounds repeat identical operations: the same training step on the
    # same model state, the same document, the same command. Each one is
    # timed by the fastest decile of its repeats. Neighbours on the shared
    # host halve the machine's speed for seconds at a time, and the share
    # of slow time in a run varies from run to run; a mean or median
    # follows that share, the fast decile follows the program. The
    # throughputs stay out of the JSON line: the host also has slow states
    # that last minutes, which moved them by more than any bound allows
    # between runs (see README)
    key_tokens = sum(d.num_tokens for d in data.key)
    cmd = {kind: [r.command_ms[kind] for r in rounds] for kind in first.command_ms}
    throughputs = {
        "train_tokens_per_s": fast_rate(list(zip(
            first.step_tokens, zip(*(r.step_ms for r in rounds))))),
        "predict_tokens_per_s": fast_rate(list(zip(
            first.doc_tokens, zip(*(r.doc_ms for r in rounds))))),
        "score_tokens_per_s": fast_rate([(key_tokens, cmd["score_dropped"]),
                                         (key_tokens, cmd["score_kept"])]),
        "analyze_tokens_per_s": fast_rate([(key_tokens, cmd["analyze"])]),
    }
    for name, value in throughputs.items():
        print(f"{name} = {value:.6g} tokens/s (text only)")

    if trace:
        metrics = layer_metrics(tracer, recall, traced, rounds)
        path = root / ".bench_trace" / f"{wl.name}-seed{seed}.jsonl"
        tracer.write(str(path))
        print(f"trace: {len(tracer.spans)} spans written to {path}; "
              f"missing targets: {tracer.missing or 'none'}")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "train_peak_mib": (peaks[0], "MiB"),
            "predict_peak_mib": (peaks[1], "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# -- per-layer figures -------------------------------------------------------------------


LAYER_TIMES = [
    "encoder.encode", "spans.enumerate_spans", "spans.represent_spans",
    "scoring.unary_score_tensors", "layers.ffnn", "scoring.prune_spans",
    "scoring.coarse_scores", "scoring.pair_features", "scoring.score_matrix",
    "mtl.head_logits", "mtl.assign_aux_labels", "mtl.gold_antecedent_mask",
    "mtl.coref_loss_from_matrix", "mtl.aux_losses", "model.forward",
    "autodiff.backward", "optim.clip_global_norm", "optim.adam_step",
    "inference.score_rows", "inference.decode_antecedents", "inference.build_clusters",
    "evaluation.evaluate", "evaluation.muc_stats", "evaluation.b_cubed_stats",
    "evaluation.ceaf_phi4_stats", "corpus.parse_conll", "corpus.write_conll",
    "corpus.read_sidecar", "corpus.apply_sidecar", "error_analysis.extract_errors",
    "error_analysis.contrast", "cli.main",
]
BACKWARD_OPS = ["matmul", "take_rows", "einsum", "concat", "mul", "add", "relu",
                "logsumexp", "scatter2d"]
FORWARD_OPS = BACKWARD_OPS + ["tanh"]
CALL_COUNTS = ["layers.ffnn"] + [f"autodiff.{op}" for op in FORWARD_OPS] \
    + ["error_analysis.classify_anaphor"]
TAPE_STAGES = ["encoder.encode", "spans.represent_spans", "scoring.unary_score_tensors",
               "scoring.score_matrix", "mtl.head_logits"]
COUNTS = ["spans.candidates", "scoring.kept", "scoring.pairs", "evaluation.clusters",
          "corpus.bytes_read"]


def layer_metric_names() -> list[tuple[str, str]]:
    names = [(f"{n}.ms", "ms") for n in LAYER_TIMES]
    names += [(f"autodiff.{op}.ms", "ms") for op in FORWARD_OPS]
    names += [(f"autodiff.backward.{op}.ms", "ms") for op in BACKWARD_OPS]
    names += [(f"{n}.backward_ms", "ms") for n in TAPE_STAGES]
    names += [(f"{n}.tape_mib", "MiB") for n in TAPE_STAGES]
    names += [("autodiff.tape.mib", "MiB"), ("autodiff.matmul.gflop", "GFLOP")]
    names += [(f"{n}.calls", "count") for n in CALL_COUNTS]
    names += [(n, "count") for n in COUNTS]
    names += [("scoring.prune_mention_recall", "ratio"),
              ("scoring.prune_lost_crossing", "ratio"),
              ("scoring.prune_lost_budget", "ratio"),
              ("scoring.shortlist_antecedent_recall", "ratio"),
              ("trace.step_coverage", "ratio"), ("trace.doc_coverage", "ratio"),
              ("trace.overhead", "ratio")]
    return names


def recall_totals(wl: Workload, stash: list) -> dict:
    cfg = train_config(wl, 0)
    totals = {}
    for doc, spans, scores, kept_spans, shortlists in stash:
        stats = tracing.recall_stats(doc, spans, scores, kept_spans, shortlists,
                                     cfg.prune_ratio)
        for k, v in stats.items():
            totals[k] = totals.get(k, 0) + v
    return totals


def layer_metrics(tracer: tracing.Tracer, totals: dict, traced: Round,
                  untraced: list) -> dict:
    """Per-layer figures of the traced round: self times and counts are
    totals over the round."""
    values = {f"{n}.ms": tracer.self_ms.get(n, 0.0) for n in LAYER_TIMES}
    values["model.forward.ms"] = tracer.total_ms.get("model.forward", 0.0)
    values.update({f"autodiff.{op}.ms": tracer.self_ms.get(f"autodiff.{op}", 0.0)
                   for op in FORWARD_OPS})
    values.update({f"autodiff.backward.{op}.ms": tracer.self_ms.get(
        f"autodiff.backward.{op}", 0.0) for op in BACKWARD_OPS})
    for n in TAPE_STAGES:
        values[f"{n}.backward_ms"] = tracer.counts.get(f"{n}.backward_ms", 0.0)
        values[f"{n}.tape_mib"] = tracer.counts.get(f"{n}.tape_bytes", 0.0) / 2 ** 20
    values["autodiff.tape.mib"] = tracer.counts.get("autodiff.tape.bytes", 0.0) / 2 ** 20
    values["autodiff.matmul.gflop"] = tracer.counts.get("autodiff.matmul.flop", 0.0) / 1e9
    values.update({f"{n}.calls": tracer.calls.get(n, 0) for n in CALL_COUNTS})
    values.update({n: tracer.counts.get(n, 0.0) for n in COUNTS})

    gold = max(totals["gold"], 1)
    values["scoring.prune_mention_recall"] = totals["kept_gold"] / gold
    values["scoring.prune_lost_crossing"] = totals["lost_crossing"] / gold
    values["scoring.prune_lost_budget"] = totals["lost_budget"] / gold
    values["scoring.shortlist_antecedent_recall"] = (
        totals["shortlist_hits"] / max(totals["anaphors"], 1))

    step_roots = {"model.loss", "autodiff.backward", "optim.clip_global_norm",
                  "optim.adam_step"}
    windows = traced.step_windows
    covered = sum(tracer.covered_ms(step_roots, lo, hi) for lo, hi in windows)
    values["trace.step_coverage"] = covered / max(sum(hi - lo for lo, hi in windows)
                                                  * 1e3, 1e-9)
    total = tracer.total_ms.get("inference.predict_document", 0.0)
    own = tracer.self_ms.get("inference.predict_document", 0.0)
    values["trace.doc_coverage"] = (total - own) / max(total, 1e-9)
    base = statistics.median(map(ops_s, untraced))
    values["trace.overhead"] = ops_s(traced) / base - 1.0
    units = dict(layer_metric_names())
    return {name: (values[name], units[name]) for name, _ in layer_metric_names()}


