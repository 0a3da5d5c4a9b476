"""End-to-end acceptance checks for the package's load-bearing guarantees.

Each test covers one guarantee and prints an `[ACCEPTANCE] <name>: PASS/FAIL`
line directly to the terminal (past pytest's capture), so a full run doubles
as a checklist. Expected fixture scores were frozen from the independent
reference implementations in oracles.py and hand-checked on the small pairs.

Margins of the two training-based checks, measured on Python 3.11 with
numpy 2.4 (OpenBLAS, 2 CPUs):

- overfit: avg F1 1.000 (bound 0.90), markable F1 1.000 (bound 0.95), and
  265 of 265 gold mentions kept at pruning. Full pruning recall rests on
  the singleton task training the mention scorer on every candidate span.
- mtl directional: held-out markable recall, baseline -> weighted, is
  0.250 -> 0.920 (seed 0), 0.432 -> 0.989 (seed 1) and 0.386 -> 0.955
  (seed 2).
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from corefmtl.corpus import Mention, merge_sidecar, parse_conll, \
    prediction_from_document, read_sidecar, write_conll
from corefmtl.encoder import EncoderConfig, build_vocab
from corefmtl.error_analysis import classify_anaphor, contrast, format_contrast, \
    tally_by_class
from corefmtl.evaluation import evaluate, score_b_cubed, score_ceaf_phi4, score_muc
from corefmtl.inference import PredictionResult, build_clusters, \
    decode_antecedents, predict_document
from corefmtl.model import ModelConfig, MtlCorefModel
from corefmtl.mtl import TaskWeights
from corefmtl.scoring import prune_spans
from corefmtl.spans import SpanCandidate
from corefmtl.synthetic import generate_corpus
from corefmtl.training import TrainConfig, gradient_check, train

from helpers import make_document
from oracles import b_cubed_reference, ceaf_phi4_by_permutation, \
    ceaf_phi4_by_subset_dp, muc_reference, random_partition

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(capfd, name):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    with capfd.disabled():
        print(f"\n[ACCEPTANCE] {name}: PASS")


# -- 1. metric oracle suite ------------------------------------------------------


def test_metrics_match_brute_force_references(capfd):
    with criterion(capfd, "metric oracle suite"):
        a, b, c = (0, 0), (1, 1), (2, 2)
        key = [[a, b, c]]
        resp = [[a, b], [c]]

        muc = score_muc(key, resp)
        assert abs(muc.precision - 1.0) < 1e-9
        assert abs(muc.recall - 1 / 2) < 1e-9
        assert abs(muc.f1 - 2 / 3) < 1e-9

        b3 = score_b_cubed(key, resp)
        assert abs(b3.precision - 1.0) < 1e-9
        assert abs(b3.recall - 5 / 9) < 1e-9
        assert abs(b3.f1 - 5 / 7) < 1e-9

        ceaf = score_ceaf_phi4(key, resp)
        assert abs(ceaf.precision - 2 / 5) < 1e-9
        assert abs(ceaf.recall - 4 / 5) < 1e-9
        assert abs(ceaf.f1 - 8 / 15) < 1e-9
        assert round(ceaf.f1, 3) == 0.533

        rng = np.random.default_rng(20260817)
        start = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            key = random_partition(rng, [(i, i) for i in range(n)])
            resp = random_partition(rng, [(i, i) for i in range(m)])
            for scorer, oracle in ((score_muc, muc_reference),
                                   (score_b_cubed, b_cubed_reference),
                                   (score_ceaf_phi4, ceaf_phi4_by_permutation),
                                   (score_ceaf_phi4, ceaf_phi4_by_subset_dp)):
                got = scorer(key, resp)
                p, r, f = oracle(key, resp)
                assert abs(got.precision - p) < 1e-9, (key, resp, oracle.__name__)
                assert abs(got.recall - r) < 1e-9, (key, resp, oracle.__name__)
                assert abs(got.f1 - f) < 1e-9, (key, resp, oracle.__name__)
        assert time.monotonic() - start < 10.0


# -- 2. reference scorer agreement -----------------------------------------------

# (keep_singletons, MUC, B-cubed, CEAF-phi4, avg F1); each metric is (P, R, F1)
# to 4 decimals, frozen from the oracles and hand-checked on pairs 1 and 4.
FIXTURE_SCORES = {
    "pair1": (False,
              (0.5000, 0.3333, 0.4000),
              (0.7500, 0.4333, 0.5493),
              (0.6500, 0.6500, 0.6500), 0.5331),
    "pair2": (False,
              (0.6000, 0.5000, 0.5455),
              (0.6852, 0.5500, 0.6102),
              (0.7417, 0.7417, 0.7417), 0.6324),
    "pair3": (False,
              (0.5000, 0.5000, 0.5000),
              (0.7500, 0.7500, 0.7500),
              (0.7500, 0.7500, 0.7500), 0.6667),
    "pair4": (True,
              (1.0000, 1.0000, 1.0000),
              (0.7500, 0.7500, 0.7500),
              (0.6667, 0.6667, 0.6667), 0.8056),
    "pair5": (True,
              (0.7500, 0.6000, 0.6667),
              (0.8788, 0.7917, 0.8330),
              (0.7333, 0.7333, 0.7333), 0.7443),
}


def test_fixture_pairs_score_as_frozen(capfd):
    with criterion(capfd, "reference scorer agreement"):
        for pair, (keep, muc, b3, ceaf, avg) in FIXTURE_SCORES.items():
            gold = parse_conll(FIXTURES / f"{pair}_key.conll")
            response = parse_conll(FIXTURES / f"{pair}_response.conll")
            # a response as Documents and as PredictionResults scores alike
            for given in (response, [prediction_from_document(d) for d in response]):
                report = evaluate(gold, given, keep_singletons=keep)
                assert report.muc.rounded() == muc, pair
                assert report.b_cubed.rounded() == b3, pair
                assert report.ceaf_phi4.rounded() == ceaf, pair
                assert round(report.avg_f1, 4) == avg, pair


# -- 3. structural invariants ----------------------------------------------------


def _closure_clusters(links, n):
    """Connected components of the link graph, as index sets of size >= 2."""
    groups = {i: {i} for i in range(n)}
    for i, j in links:
        gi, gj = groups[i], groups[j]
        if gi is not gj:
            merged = gi | gj
            for k in merged:
                groups[k] = merged
    seen = set()
    out = set()
    for g in groups.values():
        key = frozenset(g)
        if key not in seen:
            seen.add(key)
            if len(g) >= 2:
                out.add(key)
    return out


def test_dummy_pruning_and_decode_invariants(capfd):
    with criterion(capfd, "structural invariants"):
        # the dummy antecedent scores exactly 0 for every parameter draw
        doc = make_document([["Ana", "met", "Dee", "."], ["She", "waved", "."]],
                            clusters=[[(0, 0), (4, 4)]])
        vocab = build_vocab([doc], 16)
        cfg = ModelConfig(encoder=EncoderConfig(dim=6, vocab_size=16, window=1),
                          feature_dim=3, hidden=5, ffnn_depth=1, dropout=0.0,
                          max_span_width=3, prune_ratio=0.6, top_antecedents=8,
                          genres=("test",))
        for seed in range(100):
            model = MtlCorefModel(cfg, seed=seed, vocab=vocab, include_aux=False)
            fp = model.forward(doc)
            assert fp.scores.data.shape[0] >= 2
            assert np.all(fp.scores.data[:, 0] == 0.0)

        rng = np.random.default_rng(7)

        # pruning: kept spans are a subset, ordered by (start, end), within
        # budget, and never partially crossing
        for _ in range(200):
            num_tokens = int(rng.integers(8, 40))
            width = int(rng.integers(1, 5))
            spans = [SpanCandidate(s, e, 0)
                     for s in range(num_tokens)
                     for e in range(s, min(s + width, num_tokens))]
            scores = rng.normal(size=len(spans))
            ratio = float(rng.uniform(0.1, 1.0))
            kept = prune_spans(scores, spans, num_tokens, ratio=ratio)
            assert len(kept) <= math.ceil(ratio * num_tokens)
            assert len(set(kept)) == len(kept)
            assert all(0 <= i < len(spans) for i in kept)
            order = [spans[i].span for i in kept]
            assert order == sorted(order)
            for x in range(len(kept)):
                for y in range(x + 1, len(kept)):
                    s1, s2 = spans[kept[x]], spans[kept[y]]
                    assert not (s1.start < s2.start <= s1.end < s2.end)
                    assert not (s2.start < s1.start <= s2.end < s1.end)

        # greedy decoding equals the transitive closure of the picked links
        for _ in range(200):
            n = int(rng.integers(1, 11))
            kept_spans = [SpanCandidate(2 * i, 2 * i + int(rng.integers(0, 2)), 0)
                          for i in range(n)]
            shortlists, rows = [], []
            for i in range(n):
                size = int(rng.integers(0, i + 1))
                ants = sorted(rng.choice(i, size=size, replace=False)
                              .tolist()) if size else []
                shortlists.append(np.array(ants, dtype=np.intp))
                rows.append(rng.normal(scale=2.0, size=len(ants)))
            scores = np.full((n, max(len(r) for r in rows) + 1), -np.inf)
            scores[:, 0] = 0.0
            for i, row in enumerate(rows):
                scores[i, 1:1 + len(row)] = row
            picks = decode_antecedents(scores, shortlists)
            pred = build_clusters(picks, kept_spans, "test/decode_0")
            got = {frozenset(c) for c in pred.clusters}
            links = [(i, j) for i, j in enumerate(picks) if j is not None]
            want = {frozenset(kept_spans[i].span for i in comp)
                    for comp in _closure_clusters(links, n)}
            assert got == want


# -- 4. gradient check -----------------------------------------------------------


def grad_fixture():
    return make_document(
        [["Ana", "met", "the", "mayor", "."],
         ["she", "praised", "the", "mayor", "twice", "."]],
        clusters=[[(0, 0), (5, 5)], [(2, 3), (7, 8)]],
        mentions=[
            Mention(0, 0, "person", "new", cluster_id=0),
            Mention(2, 3, "person", "new", cluster_id=1),
            Mention(5, 5, "person", "given:active", cluster_id=0),
            Mention(7, 8, "person", "given:active", cluster_id=1),
        ],
        speakers=[["s1"] * 5, ["s2"] * 6],
        doc_key="test/grad",
    )


def test_analytic_gradients_match_finite_differences(capfd):
    with criterion(capfd, "gradient check"):
        cfg = TrainConfig(encoder=EncoderConfig(dim=5, vocab_size=32, window=1),
                          hidden=6, ffnn_depth=1, feature_dim=3,
                          max_span_width=4, seed=11, dropout=0.0)
        start = time.monotonic()
        report = gradient_check(grad_fixture(), cfg,
                                weights=TaskWeights(1.0, 1.0, 1.0, 1.0))
        elapsed = time.monotonic() - start
        assert report.max_rel_err < 1e-4, report.worst_param
        assert elapsed < 60.0


# -- 5. baseline recovery --------------------------------------------------------


def test_zero_aux_weights_recover_plain_trainer(capfd):
    with criterion(capfd, "baseline recovery"):
        docs = generate_corpus(4, seed=5)

        def run(include_aux):
            cfg = TrainConfig(
                steps=100, task_learning_rate=1e-3, encoder_learning_rate=1e-3,
                weight_decay=0.01, clip_norm=1.0, seed=3, eval_every=0,
                task_weights=TaskWeights(1.0, 0.0, 0.0, 0.0),
                encoder=EncoderConfig(dim=8, vocab_size=64, window=1),
                feature_dim=4, hidden=8, ffnn_depth=1, dropout=0.3,
                max_span_width=4, prune_ratio=0.4, top_antecedents=10)
            return train(docs, cfg, include_aux=include_aux)

        with_heads = run(True)
        plain = run(False)
        steps_a = [r for r in with_heads.records if "loss" in r]
        steps_b = [r for r in plain.records if "loss" in r]
        assert len(steps_a) == len(steps_b) == 100
        assert [r["loss"] for r in steps_a] == [r["loss"] for r in steps_b]
        assert [r["grad_norm"] for r in steps_a] == [r["grad_norm"] for r in steps_b]
        shared = set(with_heads.model.store.names()) & set(plain.model.store.names())
        for name in sorted(shared):
            assert np.array_equal(with_heads.model.store[name].data,
                                  plain.model.store[name].data), name


# -- 6. overfit on a small synthetic corpus --------------------------------------

# the synthetic documents are far denser in mentions than real text, so the
# pruning budget must admit every candidate for full recall to be reachable
OVERFIT_CONFIG = dict(
    steps=2000, task_learning_rate=3e-3, encoder_learning_rate=3e-3,
    weight_decay=0.0, clip_norm=1.0, seed=0, eval_every=0,
    task_weights=TaskWeights(0.5, 0.5, 0.0, 0.0),
    feature_dim=8, hidden=64, ffnn_depth=1, dropout=0.0,
    max_span_width=4, prune_ratio=1.0, top_antecedents=20, select="final")


def test_overfits_small_synthetic_corpus(capfd):
    with criterion(capfd, "overfit test"):
        start = time.monotonic()
        docs = generate_corpus(20, seed=1)
        cfg = TrainConfig(encoder=EncoderConfig(dim=32, vocab_size=256, window=1),
                          **OVERFIT_CONFIG)
        result = train(docs, cfg)
        preds = [predict_document(result.model, d) for d in docs]
        report = evaluate(docs, preds, keep_singletons=False, mention_mode="all")
        elapsed = time.monotonic() - start
        assert report.avg_f1 >= 0.90, report.avg_f1
        assert report.markable_detection.f1 >= 0.95, report.markable_detection
        assert elapsed < 900.0


# -- 7. singleton head lifts held-out recall --------------------------------------


def test_singleton_weight_lifts_held_out_recall(capfd):
    with criterion(capfd, "mtl directional property"):
        train_docs = generate_corpus(12, seed=7)
        held_out = generate_corpus(6, seed=7, start_index=100)

        def held_out_recall(seed, weights):
            cfg = TrainConfig(
                steps=400, task_learning_rate=3e-3, encoder_learning_rate=3e-3,
                weight_decay=0.0, clip_norm=1.0, seed=seed, eval_every=0,
                task_weights=weights,
                encoder=EncoderConfig(dim=32, vocab_size=256, window=1),
                feature_dim=8, hidden=64, ffnn_depth=1, dropout=0.0,
                max_span_width=4, prune_ratio=0.8, top_antecedents=20,
                select="final")
            result = train(train_docs, cfg)
            preds = [predict_document(result.model, d) for d in held_out]
            report = evaluate(held_out, preds, mention_mode="all")
            return report.markable_detection.recall

        for seed in (0, 1, 2):
            baseline = held_out_recall(seed, TaskWeights(1.0, 0.0, 0.0, 0.0))
            weighted = held_out_recall(seed, TaskWeights(0.8, 0.2, 0.0, 0.0))
            assert weighted > baseline, (seed, baseline, weighted)


# -- 8. format round-trips --------------------------------------------------------


def test_conll_and_sidecar_round_trips(capfd):
    with criterion(capfd, "format round-trips"):
        fixture_files = sorted(FIXTURES.glob("*.conll"))
        assert len(fixture_files) == 10
        for path in fixture_files:
            docs = parse_conll(path)
            assert docs, path.name
            again = parse_conll(write_conll(docs))
            assert again == docs, path.name

        rows = read_sidecar(FIXTURES / "pair5_key.tsv")
        docs = parse_conll(FIXTURES / "pair5_key.conll")
        once = [merge_sidecar(d, rows) for d in docs]
        twice = [merge_sidecar(d, rows) for d in once]
        assert once != docs
        assert twice == once


# -- 9. error analysis ------------------------------------------------------------


def test_error_contrast_and_classification(capfd):
    with criterion(capfd, "error analysis"):
        gold = parse_conll(FIXTURES / "pair1_key.conll")
        response = parse_conll(FIXTURES / "pair1_response.conll")
        self_contrast = contrast(gold, response, response)
        assert self_contrast.only_a == []
        assert self_contrast.only_b == []

        doc = make_document(
            [["Ana", "met", "the", "teacher", "and", "she", "smiled", "loudly"]],
            clusters=[[(0, 0), (5, 5)]],
            mentions=[Mention(0, 0, cluster_id=0), Mention(2, 3),
                      Mention(5, 5, cluster_id=0)],
            doc_key="test/contrast_0")
        perfect = PredictionResult("test/contrast_0", clusters=[[(0, 0), (5, 5)]])
        confused = PredictionResult("test/contrast_0", clusters=[[(2, 3), (5, 5)]])
        result = contrast([doc], [perfect], [confused])
        assert result.only_a == []
        # linking she to the teacher is both a wrong link and a missed link
        # back to Ana, and "she" is a third-person pronoun
        assert tally_by_class(result.only_b) == {
            "pronoun_1st_2nd": 0, "pronoun_3rd": 2, "definite_noun": 0,
            "indefinite_noun": 0, "proper_noun": 0, "other": 0}
        table = format_contrast(result, label_a="perfect", label_b="confused")
        lines = table.splitlines()
        pronoun_row = next(l for l in lines if l.startswith("pronoun_3rd"))
        assert "2 (100.0%)" in pronoun_row
        assert "0 (  0.0%)" in pronoun_row
        for cls in ("pronoun_1st_2nd", "definite_noun", "indefinite_noun",
                    "proper_noun", "other"):
            row = next(l for l in lines if l.startswith(cls))
            assert row.count("0 (  0.0%)") == 2
        total_row = lines[-1]
        assert total_row.startswith("total")
        assert total_row.split()[-2:] == ["0", "2"]

        phrases = make_document(
            [["I", "walked", "to", "the", "school", "and", "then",
              "to", "Harrow", "."]])
        assert classify_anaphor(phrases, (3, 4)) == "definite_noun"
        assert classify_anaphor(phrases, (8, 8)) == "proper_noun"
