"""Training loop, checkpoints, and the finite-difference gradient check.

One document per step. One AdamW optimizer updates three parameter
groups: the encoder, the coreference task (spans, scorers), and the
auxiliary heads, which get no weight decay.
Runs are bitwise reproducible for a fixed (corpus, config, seed): every
random stream is derived by name from the seed (and, for dropout, the
step), so a checkpoint holds no random state, and a resumed run follows the
trajectory of an uninterrupted one.
"""

import ctypes
import dataclasses
import json
import platform
import re
import zipfile
from dataclasses import dataclass, field
from itertools import islice
from math import isfinite

import numpy as np
import scipy

from .autodiff import named_rng
from .corpus import CorpusError, Document
from .encoder import EncoderConfig, build_vocab
from .evaluation import evaluate
from .inference import predict_document
from .model import ModelConfig, ModelStructure, MtlCorefModel
from .mtl import TaskWeights
from .optim import AdamOptimizer, clip_global_norm


class NumericError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


class CheckpointError(ValueError):
    """A file is not a training checkpoint this package wrote."""


@dataclass(frozen=True)
class TrainConfig(ModelStructure):
    """Optimization settings plus, inherited, the model-structure fields."""

    steps: int = 14500
    task_learning_rate: float = 3e-4
    encoder_learning_rate: float = 3e-4
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    seed: int = 0
    eval_every: int = 500
    task_weights: TaskWeights = field(default_factory=TaskWeights)
    # checkpoint selection: best dev average F1, or the final step
    select: str = "best"

    def __post_init__(self):
        super().__post_init__()
        if self.select not in ("best", "final"):
            raise ValueError(f"select must be 'best' or 'final', got {self.select!r}")
        if self.steps <= 0:
            raise ValueError(f"steps must be > 0, got {self.steps}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        rates = (self.task_learning_rate, self.encoder_learning_rate)
        if not all(isfinite(lr) and lr > 0 for lr in rates):
            raise ValueError(f"learning rates must be finite and > 0, got {rates}")
        if not (isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and > 0, got {self.clip_norm}")
        if not (isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, "
                             f"got {self.weight_decay}")

    def model_config(self, genres: tuple) -> ModelConfig:
        shared = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(ModelStructure)}
        return ModelConfig(**shared, genres=tuple(genres))


def config_to_dict(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(d: dict) -> TrainConfig:
    """Rebuild a TrainConfig that config_to_dict wrote. Retired keys of older
    configs are dropped: "activation" (every FFNN layer is ReLU; any other
    value is an error) and the encoder's "kind" ("pretrained", the retired
    in-process transformer, is an error), "model_name" and "segment_length"."""
    d = dict(d)
    activation = d.pop("activation", "relu")
    if activation != "relu":
        raise ValueError(f"activation {activation!r} is no longer supported; "
                         "every FFNN layer is ReLU")
    encoder = dict(d["encoder"])
    kind = encoder.pop("kind", "toy")
    if kind != "toy":
        raise ValueError(f"encoder kind {kind!r} is retired; give precomputed "
                         "token features with encoder.features")
    d["task_weights"] = TaskWeights(**d["task_weights"])
    d["encoder"] = EncoderConfig(**{key: value for key, value in encoder.items()
                                    if key not in ("model_name", "segment_length")})
    return TrainConfig(**d)


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]            # final-step parameters
    selected: dict[str, np.ndarray] | None   # dev-selected, if different
    opt: dict                                # optimizer state
    meta: dict

    def predict_params(self) -> dict[str, np.ndarray]:
        return self.selected if self.selected is not None else self.params

    def save(self, path):
        arrays = {}
        for name, arr in self.params.items():
            arrays[f"param/{name}"] = arr
        if self.selected is not None:
            for name, arr in self.selected.items():
                arrays[f"selected/{name}"] = arr
        arrays["opt/step_count"] = np.array(self.opt["step_count"])
        for key, arr in self.opt["arrays"].items():
            arrays[f"opt/{key}"] = arr
        arrays["meta"] = np.array(json.dumps(self.meta))
        # write through a handle so numpy cannot append its own suffix
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint's archive; its meta is checked where it is read
        (_checkpoint_meta). The opt_main/ and opt_aux/ entries of older
        checkpoints (two optimizers stepped together, over disjoint
        parameters) fold into the one optimizer state."""
        try:
            with np.load(path, allow_pickle=False) as npz:
                entries = {key: npz[key] for key in npz.files}
        except (TypeError, ValueError, EOFError, zipfile.BadZipFile):
            # a bare .npy array, non-zip bytes, or a truncated archive
            raise CheckpointError(f"{path}: not a training checkpoint "
                                  "(not a readable .npz archive)") from None
        params, selected = {}, {}
        opt = {"arrays": {}}
        meta_text = None
        for key, arr in entries.items():
            tag, _, rest = key.partition("/")
            if key == "meta":
                meta_text = str(arr[()])
            elif tag == "param":
                params[rest] = arr
            elif tag == "selected":
                selected[rest] = arr
            elif tag in ("opt", "opt_main", "opt_aux"):
                if rest != "step_count":
                    opt["arrays"][rest] = arr
                elif "step_count" in opt and not np.array_equal(opt["step_count"], arr):
                    raise CheckpointError(f"{path}: not a training checkpoint "
                                          "(its optimizers' step counts differ)")
                else:
                    opt["step_count"] = arr[()]
            else:
                raise CheckpointError(f"{path}: not a training checkpoint "
                                      f"(unexpected entry {key!r})")
        if meta_text is None:
            raise CheckpointError(f"{path}: not a training checkpoint (no meta entry)")
        try:
            meta = json.loads(meta_text)
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: not a training checkpoint "
                                  "(meta is not a JSON object)")
        return cls(params=params, selected=selected or None,
                   opt=opt, meta=meta)


@dataclass(frozen=True)
class _CheckpointMeta:
    """A checkpoint's meta, checked: everything a rebuild or a resume reads
    of it. The platform stamp is informational and not checked: platform
    holds the keys of this process's stamp (_platform_stamp) that the
    meta has, as they are there."""

    config: TrainConfig
    genres: tuple[str, ...]
    vocab: tuple[str, ...]
    include_aux: bool
    step: int
    # the dev selection so far: both None, or the step and its average F1
    best_step: int | None
    best_avg_f1: float | None
    platform: dict

    def platform_changes(self) -> dict[str, list]:
        """{key: [the checkpoint's, this process's]} for each stamp key
        whose value differs. A key the stamp lacks is not compared: older
        checkpoints have no blas_threads, and the oldest no stamp."""
        now = _platform_stamp()
        return {key: [value, now[key]] for key, value in self.platform.items()
                if value != now[key]}

    def model(self, state: dict) -> MtlCorefModel:
        """The model this meta describes, holding state."""
        cfg = self.config
        model = MtlCorefModel(cfg.model_config(self.genres), seed=cfg.seed,
                              vocab=self.vocab, include_aux=self.include_aux)
        _load_state(model.store.load_state, state)
        return model


def _checkpoint_meta(ckpt: Checkpoint) -> _CheckpointMeta:
    """The one reader of a checkpoint's meta. CheckpointError when a key is
    missing, mistyped or out of range, when the selected parameters are
    there but the dev selection has no earlier step (or the reverse), or
    when the optimizer's step count is not the meta's step."""
    meta = ckpt.meta
    missing = [key for key in ("config", "genres", "vocab", "include_aux",
                               "best_step", "best_avg_f1") if key not in meta]
    if missing:
        raise CheckpointError(f"checkpoint meta lacks {', '.join(missing)}")
    for key in ("genres", "vocab"):
        value = meta[key]
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise CheckpointError(f"checkpoint meta {key} is not a list of strings")
    if not isinstance(meta["include_aux"], bool):
        raise CheckpointError("checkpoint meta include_aux is not true or false")
    try:
        cfg = config_from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint config is not valid: {exc}") from None
    # a missing step reads as None, which is not a count
    step = meta.get("step")
    if type(step) is not int or step < 0:
        raise CheckpointError(f"checkpoint meta step {step!r} is not a count")
    best_step, best_avg_f1 = meta["best_step"], meta["best_avg_f1"]
    if best_step is None:
        if best_avg_f1 is not None:
            raise CheckpointError(f"checkpoint meta best_avg_f1 {best_avg_f1!r} "
                                  "has no best_step")
    elif type(best_step) is not int or not 1 <= best_step <= step:
        raise CheckpointError(f"checkpoint meta best_step {best_step!r} is not "
                              f"a step from 1 to {step}")
    # NaN fails the range test
    elif not (isinstance(best_avg_f1, float) and 0.0 <= best_avg_f1 <= 1.0):
        raise CheckpointError(f"checkpoint meta best_avg_f1 {best_avg_f1!r} is "
                              "not an F1 in [0, 1]")
    # the selected parameters are stored exactly when they are not the
    # final step's
    selects = cfg.select == "best" and best_step is not None and best_step < step
    if (ckpt.selected is not None) != selects:
        held = "holds" if ckpt.selected is not None else "lacks"
        raise CheckpointError(f"checkpoint {held} selected parameters, with "
                              f"best_step {best_step!r} at step {step} "
                              f"(select {cfg.select!r})")
    count = np.asarray(ckpt.opt.get("step_count"))
    if count.shape != () or count.dtype.kind not in "iu":
        raise CheckpointError("not a training checkpoint (step_count is not an integer)")
    if int(count) != step:
        raise CheckpointError(f"checkpoint step_count {int(count)} is not "
                              f"its meta step {step}")
    return _CheckpointMeta(config=cfg, genres=tuple(meta["genres"]),
                           vocab=tuple(meta["vocab"]),
                           include_aux=meta["include_aux"], step=step,
                           best_step=best_step, best_avg_f1=best_avg_f1,
                           platform={key: meta[key] for key in _platform_stamp()
                                     if key in meta})


def _platform_stamp() -> dict[str, str | int | None]:
    """Python, numpy, scipy and BLAS versions and the BLAS thread count:
    bitwise reproducibility of a run holds only on the platform that made
    it. scipy's sparse kernel sets the summation order of every backward
    scatter, and OpenBLAS divides a product among its threads by the
    product's shape, so the thread count changes trained bits too."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads()}


def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS this process has loaded, asked
    through ctypes, or None where it cannot be read (no OpenBLAS, or no
    /proc/self/maps to find it in)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def model_from_checkpoint(ckpt: Checkpoint) -> MtlCorefModel:
    """Rebuild the model a checkpoint holds. CheckpointError when its meta
    breaks the contract _checkpoint_meta checks or its parameters do not
    fit."""
    return _checkpoint_meta(ckpt).model(ckpt.predict_params())


def _load_state(load, state: dict):
    """load(state), where load is a parameter store's or an optimizer's
    load_state. CheckpointError when an entry is missing, unknown or
    unpaired, has the wrong shape or holds a NaN or an infinity."""
    try:
        load(state)
    except (KeyError, ValueError) as exc:
        # args[0] is the message
        raise CheckpointError(exc.args[0]) from None


@dataclass
class TrainResult:
    model: MtlCorefModel
    records: list[dict]
    checkpoint: Checkpoint
    best_step: int | None
    best_avg_f1: float | None


def _new_model(docs, cfg: TrainConfig, include_aux: bool) -> MtlCorefModel:
    """A freshly initialised model with a genre row for each genre of docs
    and their vocabulary (none for a features model: it reads no token ids)."""
    genres = tuple(sorted({d.genre for d in docs}))
    vocab = [] if cfg.encoder.features else build_vocab(docs, cfg.encoder.vocab_size)
    return MtlCorefModel(cfg.model_config(genres), cfg.seed, vocab, include_aux)


def _document_order(seed: int, n: int):
    """The index of each step's training document, without end: one
    permutation of range(n) per epoch, from the seed's "shuffle" stream."""
    rng = named_rng(seed, "shuffle")
    while True:
        yield from rng.permutation(n).tolist()


def train(train_docs: list[Document], cfg: TrainConfig,
          dev_docs: list[Document] | None = None,
          include_aux: bool | None = None,
          resume_from: Checkpoint | None = None,
          log_fn=None) -> TrainResult:
    """Run the training loop; returns the model plus per-step records.

    include_aux=None builds auxiliary heads exactly when some auxiliary
    weight is positive. Passing True with all-zero auxiliary weights is the
    instrumented-baseline mode: the heads exist but contribute nothing,
    and the loss trajectory matches include_aux=False bit for bit.

    dev_docs are evaluated every eval_every steps (0: never) and at the last
    step. resume_from continues a checkpoint's run to cfg.steps; its config
    (apart from steps) and include_aux must be this run's. It holds no random
    state: the document order is a function of the seed and the number of
    documents, so a resume needs the same documents in the same order. A
    resume on a platform other than the checkpoint's runs on, and its
    first step record names the stamp keys that differ, as
    platform_changed: {key: [the checkpoint's, this process's]}; the BLAS
    thread count, for one, can change the trained bits.
    """
    if not train_docs:
        raise CorpusError("no training documents")
    for doc in train_docs:
        doc.validate()
        if doc.num_tokens == 0:
            raise CorpusError(f"{doc.doc_key}: training document has no tokens")
    # a bad dev document fails now, not at the first evaluation
    for doc in dev_docs or []:
        doc.validate()
    weights = cfg.task_weights
    include_aux = bool(weights.aux_tasks() if include_aux is None else include_aux)

    start_step = 0
    best_step = best_avg_f1 = best_params = None
    # a resume on another platform says so in its first record
    platform_changed = {}
    if resume_from is None:
        model = _new_model(train_docs, cfg, include_aux)
    else:
        prior = _checkpoint_meta(resume_from)
        # the selected parameters are checked now rather than when the run
        # ends and loads them
        model = prior.model(resume_from.predict_params())
        # the step horizon may grow on resume; everything else must match
        if dataclasses.replace(prior.config, steps=cfg.steps) != cfg:
            raise ValueError("resume config differs from the checkpoint's")
        if prior.include_aux != include_aux:
            raise ValueError("resume include_aux differs from the checkpoint's")
        start_step = prior.step
        platform_changed = prior.platform_changes()
        if cfg.steps < start_step:
            raise ValueError(f"resume to step {cfg.steps} is before the "
                             f"checkpoint's step {start_step}")
        # the dev selection so far; the checkpoint holds the best parameters
        # apart only when they are not its own step's
        best_step, best_avg_f1 = prior.best_step, prior.best_avg_f1
        if resume_from.selected is not None:
            best_params = resume_from.selected
        elif best_step == start_step:
            best_params = resume_from.params
    if model.features is not None:
        model.features.require(d.doc_key for d in train_docs + (dev_docs or []))
    opt = AdamOptimizer([
        (model.encoder_parameters(), cfg.encoder_learning_rate, cfg.weight_decay),
        (model.task_parameters(), cfg.task_learning_rate, cfg.weight_decay),
        (model.aux_parameters(), cfg.task_learning_rate, 0.0),
    ])
    if resume_from is not None:
        _load_state(model.store.load_state, resume_from.params)
        _load_state(opt.load_state, resume_from.opt)

    records: list[dict] = []
    all_params = model.all_parameters()
    order = islice(_document_order(cfg.seed, len(train_docs)), start_step, None)
    for step, index in zip(range(start_step + 1, cfg.steps + 1), order):
        doc = train_docs[index]
        # the forward pass is not kept: its span list and score tensors
        # would stay alive through backward and the optimizer step
        tot, values = model.loss(doc, weights, train_step=step)[:2]
        loss_value = float(tot.item())
        if not np.isfinite(loss_value):
            raise NumericError(
                f"non-finite loss at step {step} on document {doc.doc_key}: "
                f"{values}")
        tot.backward()
        grad_norm = clip_global_norm(all_params, cfg.clip_norm)
        if not np.isfinite(grad_norm):
            raise NumericError(
                f"non-finite gradient at step {step} on document {doc.doc_key}")
        opt.step()
        # the gradients are spent: dropped now, they do not sit beside the
        # next step's activations or the checkpoint's copies
        model.store.zero_grad()

        rec = {"step": step, "doc_key": doc.doc_key, "loss": loss_value,
               "grad_norm": grad_norm}
        rec.update({f"loss_{k}": v for k, v in values.items()})
        if platform_changed:
            rec["platform_changed"], platform_changed = platform_changed, {}
        records.append(rec)
        if log_fn:
            log_fn(rec)
        if dev_docs and (step == cfg.steps
                         or cfg.eval_every and step % cfg.eval_every == 0):
            report = evaluate(dev_docs, [predict_document(model, d) for d in dev_docs])
            rec = {"step": step, "dev_avg_f1": report.avg_f1,
                   "dev_muc_f1": report.muc.f1, "dev_b_cubed_f1": report.b_cubed.f1,
                   "dev_ceaf_phi4_f1": report.ceaf_phi4.f1}
            records.append(rec)
            if log_fn:
                log_fn(rec)
            if best_avg_f1 is None or report.avg_f1 > best_avg_f1:
                best_step, best_avg_f1 = step, report.avg_f1
                best_params = model.store.state()

    final_params = model.store.state()
    selected = None
    if cfg.select == "best" and best_params is not None:
        model.store.load_state(best_params)
        if best_step != cfg.steps:
            selected = best_params
    meta = {
        "config": config_to_dict(cfg),
        "include_aux": include_aux,
        "vocab": model.vocab,
        "genres": list(model.config.genres),
        "step": cfg.steps,
        "best_step": best_step,
        "best_avg_f1": best_avg_f1,
        **_platform_stamp(),
    }
    ckpt = Checkpoint(params=final_params, selected=selected, opt=opt.state(),
                      meta=meta)
    return TrainResult(model=model, records=records, checkpoint=ckpt,
                       best_step=best_step, best_avg_f1=best_avg_f1)


# -- gradient check ---------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    per_param: dict[str, float]


def gradient_check(doc: Document, cfg: TrainConfig,
                   weights: TaskWeights | None = None,
                   include_aux: bool = True, eps: float = 1e-5,
                   rel_floor: float = 1e-3) -> GradCheckReport:
    """Central-difference check of every parameter element against backprop.

    Dropout is forced off. Relative error uses max(|analytic|, |numeric|,
    rel_floor) as the denominator so near-zero gradients compare on an
    absolute scale.
    """
    if weights is None:
        weights = TaskWeights(1.0, 1.0, 1.0, 1.0)
    doc.validate()
    cfg = dataclasses.replace(cfg, dropout=0.0)
    model = _new_model([doc], cfg, include_aux)

    def loss_value() -> float:
        tot, _, _ = model.loss(doc, weights)
        return float(tot.item())

    model.store.zero_grad()
    tot, _, _ = model.loss(doc, weights)
    tot.backward()
    analytic = {name: (model.store[name].grad.copy()
                       if model.store[name].grad is not None
                       else np.zeros_like(model.store[name].data))
                for name in model.store.names()}

    per_param = {}
    worst = ("", 0.0)
    for name in model.store.names():
        tensor = model.store[name]
        flat = tensor.data.reshape(-1)
        worst_here = 0.0
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + eps
            up = loss_value()
            flat[idx] = original - eps
            down = loss_value()
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[idx])
            denom = max(abs(a), abs(numeric), rel_floor)
            err = abs(a - numeric) / denom
            worst_here = max(worst_here, err)
        per_param[name] = worst_here
        if worst_here > worst[1]:
            worst = (name, worst_here)
    return GradCheckReport(max_rel_err=worst[1], worst_param=worst[0],
                           per_param=per_param)
