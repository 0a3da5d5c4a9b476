"""Per-stage tracemalloc peaks of a benchmark workload's prediction or training step.

    python3 scripts/stage_peaks.py --workload long-doc predict
    python3 scripts/stage_peaks.py --workload long-doc predict --tokens 10000
    python3 scripts/stage_peaks.py --workload short-doc train

Run from the root of a source checkout: the package is imported from
./src. The inputs and the training configuration are those of
perfbench/workloads.py at seed 1, and the measured call is the one
behind the benchmark's peaks (`measure_peaks`):

  predict  `predict_document` on the largest held-out document, with the
           model of one training step on the largest training document;
           with `--tokens N`, on a seed-1 document of N tokens made by
           perfbench/inputs.py (`make_document`) instead
  train    `train()` for one step on the largest training document

Inside this process only, each stage function the forward pass calls
(the names corefmtl.model reads) is wrapped, and so are the decoding
stages (predict) or the losses, `Tensor.backward`, gradient clipping and
the optimizer step (train). A stage called within another is listed
under the caller's name, as in `backward/pair_block`. The backward
closure of each tape node that reruns its tiles is listed under the
stage that runs it (`backward`): each pair block's scorer
(`autodiff.pair_scorer`) as `pair_block`, each span block's unary
scorers (`autodiff.ffnn_node` over span rows) as `span_block`, each
head (`autodiff.ffnn_node` over a tensor) as `ffnn`, and the kept
spans' representations (`autodiff.span_representation`) as
`kept_spans`. For each stage, in
the order of its first call, the script prints its number of calls and,
of the call that peaked highest, the traced memory at entry, its peak
and the traced memory at exit, in MiB. The last row is the whole
measured call.
"""

import argparse
import functools
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
MIB = 2 ** 20

FORWARD_STAGES = ("encode", "enumerate_spans", "represent_spans", "unary_score_tensors",
                  "prune_spans", "coarse_scores", "pair_features", "score_matrix",
                  "head_logits")
LOSS_STAGES = ("gold_antecedent_mask", "coref_loss_from_matrix", "assign_aux_labels",
               "aux_losses", "mention_labels", "mention_scorer_loss", "total_loss")


class StagePeaks:
    """Traced memory at entry and exit and the peak in between of every
    wrapped call. A stage's peak covers the stages it calls: tracemalloc
    keeps one peak, so a call folds it into its caller's before it
    resets it."""

    def __init__(self):
        self.stack: list[list] = []   # [path, entry, peak so far] per open call
        self.stats: dict[str, list] = {}  # path: [calls, entry, peak, exit]

    def wrap(self, owner, attr: str, name=None):
        """Measure owner.attr under name, attr by default; a callable name
        gives the name of each call from its arguments."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            self._enter(name(*args) if callable(name) else name or attr)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        setattr(owner, attr, measured)

    def label_nodes(self, autodiff):
        """Name the backward closure of each pair scorer node `pair_block`,
        that of each FFNN node `span_block` over span rows and `ffnn` over
        a tensor, and that of each span representation node `kept_spans`."""
        def labelled_node(node, name):
            def build(*args, **kwargs):
                result = node(*args, **kwargs)
                # span_representation returns the node and the attention
                out = result[0] if isinstance(result, tuple) else result
                if out._backward is not None:
                    closure = out._backward
                    label = name(*args) if callable(name) else name

                    def measured(grad):
                        self._enter(label)
                        try:
                            closure(grad)
                        finally:
                            self._exit()

                    out._backward = measured
                return result

            return build

        autodiff.pair_scorer = labelled_node(autodiff.pair_scorer, "pair_block")
        autodiff.ffnn_node = labelled_node(
            autodiff.ffnn_node,
            lambda x, *_: "span_block" if isinstance(x, autodiff.SpanRows) else "ffnn")
        autodiff.span_representation = labelled_node(autodiff.span_representation,
                                                      "kept_spans")
        self.wrap(autodiff.Tensor, "backward")

    def _enter(self, name: str):
        current, peak = tracemalloc.get_traced_memory()
        if self.stack:
            self.stack[-1][2] = max(self.stack[-1][2], peak)
        path = f"{self.stack[-1][0]}/{name}" if self.stack else name
        self.stack.append([path, current, current])
        tracemalloc.reset_peak()

    def _exit(self):
        current, peak = tracemalloc.get_traced_memory()
        path, entry, top = self.stack.pop()
        top = max(top, peak)
        if self.stack:
            self.stack[-1][2] = max(self.stack[-1][2], top)
        tracemalloc.reset_peak()
        stat = self.stats.setdefault(path, [0, entry, top, current])
        stat[0] += 1
        if top > stat[2]:
            stat[1:] = [entry, top, current]

    def rows(self) -> list[str]:
        width = max(len("stage"), *map(len, self.stats))
        lines = [f"{'stage':<{width}}  calls  entry_mib  peak_mib  exit_mib"]
        for path, (calls, entry, peak, exit_) in self.stats.items():
            lines.append(f"{path:<{width}}  {calls:5d}  {entry / MIB:9.3f}  "
                         f"{peak / MIB:8.3f}  {exit_ / MIB:8.3f}")
        return lines


def stage_peaks(workload: str, mode: str, tokens: int | None = None) -> list[str]:
    import inputs
    import workloads
    from corefmtl import autodiff, inference, model, optim, training

    wl = workloads.WORKLOADS[workload]
    data = workloads.make_inputs(wl, SEED)
    largest_train = max(data.train_docs, key=lambda d: d.num_tokens)
    cfg = workloads.train_config(wl, SEED, steps=1)
    stages = [(model, name) for name in FORWARD_STAGES]
    if mode == "predict":
        trained = training.train([largest_train], cfg).model
        stages += [(inference, "decode_antecedents"), (inference, "build_clusters"),
                   (inference, "predict_document")]
        largest = (inputs.make_document(SEED, f"tokens/{tokens}", tokens) if tokens
                   else max(data.heldout, key=lambda d: d.num_tokens))

        def call():
            inference.predict_document(trained, largest)
    else:
        stages += [(model, name) for name in LOSS_STAGES]
        stages += [(training, "clip_global_norm"),
                   (optim.AdamOptimizer, "step", "adam_step"), (training, "train")]

        def call():
            training.train([largest_train], cfg)
    peaks = StagePeaks()
    if mode == "train":
        peaks.label_nodes(autodiff)
    for stage in stages:
        peaks.wrap(*stage)
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
    return peaks.rows()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("long-doc", "short-doc"))
    parser.add_argument("mode", choices=("predict", "train"))
    parser.add_argument("--tokens", type=int, default=None,
                        help="predict a document of this many tokens (predict only)")
    args = parser.parse_args(argv)
    if args.tokens is not None and (args.mode != "predict" or args.tokens < 1):
        parser.error("--tokens takes a count >= 1, with predict")
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    print("\n".join(stage_peaks(args.workload, args.mode, args.tokens)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
