"""Training loop: determinism, checkpoints, resume, gradient check."""

import copy
import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import scipy

from corefmtl import autodiff as ad
from corefmtl.corpus import UNKNOWN, CorpusError, Mention
from corefmtl.encoder import EncoderConfig, build_vocab
from corefmtl.inference import PredictionResult, predict_document
from corefmtl import model as model_module
from corefmtl.model import MtlCorefModel
from corefmtl import mtl
from corefmtl.mtl import PRESET_WEIGHTS, TaskWeights
from corefmtl.synthetic import generate_corpus
from corefmtl.training import (
    Checkpoint,
    CheckpointError,
    NumericError,
    TrainConfig,
    _document_order,
    _platform_stamp,
    config_from_dict,
    config_to_dict,
    gradient_check,
    model_from_checkpoint,
    train,
)
from helpers import make_document
from oracles import ffnn_reference, window_mix_reference


def tiny_config(**kw):
    base = dict(
        steps=6, task_learning_rate=1e-3, encoder_learning_rate=1e-3,
        weight_decay=0.01, clip_norm=1.0, seed=3, eval_every=0,
        encoder=EncoderConfig(dim=8, vocab_size=64, window=1),
        feature_dim=4, hidden=8, ffnn_depth=1, dropout=0.3,
        max_span_width=4, top_antecedents=10,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def docs():
    return generate_corpus(3, seed=5)


def loss_trace(result):
    return [(r["step"], r["doc_key"], r["loss"], r["grad_norm"])
            for r in result.records if "loss" in r]


def params_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestDeterminism:
    def test_same_seed_is_bitwise_identical(self, docs):
        r1 = train(docs, tiny_config())
        r2 = train(docs, tiny_config())
        assert loss_trace(r1) == loss_trace(r2)
        assert params_equal(r1.checkpoint.params, r2.checkpoint.params)

    def test_block_size_moves_dropout_free_training_by_rounding_only(
            self, docs, monkeypatch):
        # each block draws its own dropout masks, so only without dropout
        # does a run not depend on the block size; the sums of the blocks'
        # gradients still round apart
        cfg = tiny_config(steps=3, dropout=0.0,
                          task_weights=PRESET_WEIGHTS["sg_ent_infs"])
        want = train(docs, cfg).records
        monkeypatch.setattr(ad, "PAIR_BLOCK", 3)
        got = train(docs, cfg).records
        assert [set(r) for r in got] == [set(r) for r in want]
        for g, w in zip(got, want):
            for key in w:
                if key.startswith("loss") or key == "grad_norm":
                    assert g[key] == pytest.approx(w[key], rel=1e-12, abs=0), key

    def test_seed_changes_the_trajectory(self, docs):
        r1 = train(docs, tiny_config(seed=3))
        r2 = train(docs, tiny_config(seed=4))
        assert loss_trace(r1) != loss_trace(r2)

    def test_instrumented_baseline_matches_plain_baseline(self, docs):
        # heads present but all auxiliary weights zero: the loss graph and
        # every shared parameter update must match the head-free model
        cfg = tiny_config()
        with_heads = train(docs, cfg, include_aux=True)
        without = train(docs, cfg, include_aux=False)
        assert loss_trace(with_heads) == loss_trace(without)
        shared = set(without.checkpoint.params)
        assert shared < set(with_heads.checkpoint.params)
        extra = set(with_heads.checkpoint.params) - shared
        assert extra and all(name.startswith("head/") for name in extra)
        for name in shared:
            assert np.array_equal(with_heads.checkpoint.params[name],
                                  without.checkpoint.params[name])

    def test_default_include_aux_follows_weights(self, docs):
        cfg = tiny_config(steps=1)
        baseline = train(docs, cfg)
        assert not any(n.startswith("head/") for n in baseline.checkpoint.params)
        mtl = train(docs, tiny_config(
            steps=1, task_weights=TaskWeights(0.5, 0.5, 0.0, 0.0)))
        assert any(n.startswith("head/") for n in mtl.checkpoint.params)


class TestRecords:
    def test_baseline_records_have_only_coref_loss(self, docs):
        result = train(docs, tiny_config(steps=2))
        for rec in result.records:
            assert set(rec) == {"step", "doc_key", "loss", "grad_norm",
                                "loss_coref"}

    def test_mtl_records_carry_each_weighted_loss(self, docs):
        weights = TaskWeights(0.4, 0.2, 0.2, 0.0)
        result = train(docs, tiny_config(steps=2, task_weights=weights))
        rec = result.records[0]
        assert {"loss_coref", "loss_singleton", "loss_entity_type"} <= set(rec)
        assert "loss_info_status" not in rec

    @pytest.mark.parametrize("steps,eval_every,resume_step,expected", [
        (4, 2, None, [2, 4]),
        (5, 2, None, [2, 4, 5]),
        (3, 0, None, [3]),
        (5, 2, 4, [5]),
    ])
    def test_dev_eval_records(self, docs, steps, eval_every, resume_step, expected):
        """Every eval_every-th step and the last step are evaluated; a
        resumed run evaluates only its own steps."""
        def run(steps, resume_from=None):
            return train(docs, tiny_config(steps=steps, eval_every=eval_every),
                         dev_docs=docs[:1], resume_from=resume_from)

        result = run(steps, run(resume_step).checkpoint if resume_step else None)
        evals = [r for r in result.records if "dev_avg_f1" in r]
        assert [r["step"] for r in evals] == expected
        assert {"dev_muc_f1", "dev_b_cubed_f1", "dev_ceaf_phi4_f1"} <= set(evals[0])

    def test_document_order_is_the_seeds_permutations(self, docs):
        """One permutation of the documents per epoch, drawn one after
        another from the seed's "shuffle" stream; the run follows it."""
        rng = ad.named_rng(3, "shuffle")
        expected = np.concatenate([rng.permutation(len(docs)) for _ in range(3)])
        assert list(islice(_document_order(3, len(docs)), 9)) == expected.tolist()
        result = train(docs, tiny_config(steps=8, seed=3))
        assert [r["doc_key"] for r in result.records] == \
            [docs[i].doc_key for i in expected[:8]]

    def test_log_fn_sees_every_record(self, docs):
        seen = []
        result = train(docs, tiny_config(steps=3), log_fn=seen.append)
        assert seen == result.records

    def test_trained_model_holds_no_gradients(self, docs):
        """Each step drops its gradients once the optimizer has used them,
        so none sit beside the checkpoint or the returned model."""
        result = train(docs, tiny_config(steps=2))
        assert [p.name for p in result.model.all_parameters()
                if p.grad is not None] == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no training documents"):
            train([], tiny_config())


class TestCheckpoint:
    def test_save_load_round_trip(self, docs, tmp_path):
        result = train(docs, tiny_config(steps=2), dev_docs=docs[:1])
        path = tmp_path / "ck.npz"
        result.checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert params_equal(loaded.params, result.checkpoint.params)
        assert loaded.meta == result.checkpoint.meta
        assert loaded.opt["step_count"] == 2
        assert params_equal(loaded.opt["arrays"], result.checkpoint.opt["arrays"])

    def test_meta_carries_platform_stamp(self, docs, tmp_path):
        result = train(docs, tiny_config(steps=1))
        path = tmp_path / "ck.npz"
        result.checkpoint.save(path)
        meta = Checkpoint.load(path).meta
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__
        assert meta["scipy"] == scipy.__version__
        assert isinstance(meta["blas"], str) and meta["blas"]
        assert meta["blas_threads"] == _platform_stamp()["blas_threads"]

    def test_stamp_reports_the_blas_thread_count(self):
        """The stamp reads the thread count OpenBLAS runs with; skipped
        where it cannot be read."""
        code = ("import json; from corefmtl.training import _platform_stamp; "
                "print(json.dumps(_platform_stamp()['blas_threads']))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        count = json.loads(proc.stdout)
        if count is None:
            pytest.skip("the BLAS thread count cannot be read on this platform")
        assert count == 1

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        with open(path, "wb") as fh:
            np.savez(fh, x=np.zeros(3))
        with pytest.raises(CheckpointError, match="not a training checkpoint"):
            Checkpoint.load(path)

    def test_model_from_checkpoint_reproduces_scores(self, docs, tmp_path):
        result = train(docs, tiny_config(steps=2))
        path = tmp_path / "ck.npz"
        result.checkpoint.save(path)
        rebuilt = model_from_checkpoint(Checkpoint.load(path))
        fp_a = result.model.forward(docs[0])
        fp_b = rebuilt.forward(docs[0])
        assert np.array_equal(fp_a.scores.data, fp_b.scores.data)
        assert np.array_equal(fp_a.kept, fp_b.kept)

    def test_best_selection_loads_best_into_model(self, docs):
        result = train(docs, tiny_config(steps=4, eval_every=2),
                       dev_docs=docs[:1])
        assert result.best_step is not None
        assert result.best_avg_f1 == result.checkpoint.meta["best_avg_f1"]
        assert params_equal(result.model.store.state(),
                            result.checkpoint.predict_params())

    def test_final_selection_keeps_last_step(self, docs):
        result = train(docs, tiny_config(steps=4, eval_every=2, select="final"),
                       dev_docs=docs[:1])
        assert result.checkpoint.selected is None
        assert params_equal(result.model.store.state(),
                            result.checkpoint.params)


class TestResume:
    def test_resume_matches_uninterrupted_run(self, docs, tmp_path):
        full = train(docs, tiny_config(steps=6))
        part = train(docs, tiny_config(steps=3))
        path = tmp_path / "mid.npz"
        part.checkpoint.save(path)
        resumed = train(docs, tiny_config(steps=6),
                        resume_from=Checkpoint.load(path))
        assert loss_trace(resumed) == loss_trace(full)[3:]
        assert params_equal(resumed.checkpoint.params, full.checkpoint.params)

    @pytest.mark.parametrize("stamp", ["edited", "older", "none"])
    def test_resume_records_a_platform_change(self, docs, tmp_path, stamp):
        """A 2-step checkpoint whose platform stamp is edited resumes on the
        uninterrupted run's losses, and its first record names each
        differing key as [checkpoint, now]; later records do not. A stamp
        without blas_threads (as checkpoints had before it) compares the
        keys it has, and a checkpoint without a stamp records nothing."""
        full = train(docs, tiny_config(steps=4))
        part = train(docs, tiny_config(steps=2))
        now = _platform_stamp()
        meta = part.checkpoint.meta
        assert {key: meta[key] for key in now} == now
        if stamp == "edited":
            meta.update(numpy="1.0.0", blas_threads=64)
            want = {"numpy": ["1.0.0", now["numpy"]],
                    "blas_threads": [64, now["blas_threads"]]}
        elif stamp == "older":
            del meta["blas_threads"]
            meta["python"] = "3.8.0"
            want = {"python": ["3.8.0", now["python"]]}
        else:
            for key in now:
                del meta[key]
            want = None
        path = tmp_path / "mid.npz"
        part.checkpoint.save(path)
        resumed = train(docs, tiny_config(steps=4), resume_from=Checkpoint.load(path))
        assert loss_trace(resumed) == loss_trace(full)[2:]
        first, *rest = resumed.records
        assert first.get("platform_changed") == want
        assert all("platform_changed" not in r for r in rest)
        assert all("platform_changed" not in r for r in full.records)

    def test_resume_with_aux_heads_matches_uninterrupted_run(self, docs, tmp_path):
        weights = TaskWeights(0.55, 0.15, 0.15, 0.15)
        full = train(docs, tiny_config(steps=6, task_weights=weights))
        part = train(docs, tiny_config(steps=3, task_weights=weights))
        assert any(key.startswith("m/head/") for key in part.checkpoint.opt["arrays"])
        path = tmp_path / "mid.npz"
        part.checkpoint.save(path)
        resumed = train(docs, tiny_config(steps=6, task_weights=weights),
                        resume_from=Checkpoint.load(path))
        assert loss_trace(resumed) == loss_trace(full)[3:]
        assert params_equal(resumed.checkpoint.params, full.checkpoint.params)

    def test_two_optimizer_layout_resumes_identically(self, docs, tmp_path):
        # checkpoints once kept the heads' Adam state under opt_aux/ and the
        # rest under opt_main/, each with its own (equal) step count
        weights = TaskWeights(0.5, 0.5, 0.0, 0.0)
        full = train(docs, tiny_config(steps=6, task_weights=weights))
        part = train(docs, tiny_config(steps=3, task_weights=weights))
        path = tmp_path / "mid.npz"
        part.checkpoint.save(path)
        with np.load(path) as npz:
            entries = {key: npz[key] for key in npz.files}
        old = {}
        for key, arr in entries.items():
            if key == "opt/step_count":
                old["opt_main/step_count"] = old["opt_aux/step_count"] = arr
            elif key.startswith("opt/"):
                rest = key[len("opt/"):]
                tag = "opt_aux" if rest.split("/", 1)[1].startswith("head/") \
                    else "opt_main"
                old[f"{tag}/{rest}"] = arr
            else:
                old[key] = arr
        assert any(k.startswith("opt_aux/m/") for k in old)
        old_path = tmp_path / "old.npz"
        with open(old_path, "wb") as fh:
            np.savez(fh, **old)
        loaded = Checkpoint.load(old_path)
        assert loaded.opt["step_count"] == 3
        assert params_equal(loaded.opt["arrays"], part.checkpoint.opt["arrays"])
        resumed = train(docs, tiny_config(steps=6, task_weights=weights),
                        resume_from=loaded)
        assert loss_trace(resumed) == loss_trace(full)[3:]
        assert params_equal(resumed.checkpoint.params, full.checkpoint.params)
        # two step counts that differ cannot fold into one
        old["opt_aux/step_count"] = np.array(4)
        with open(old_path, "wb") as fh:
            np.savez(fh, **old)
        with pytest.raises(CheckpointError, match="optimizers' step counts differ"):
            Checkpoint.load(old_path)

    def test_checkpoint_with_relu_activation_loads_and_resumes(self, docs, tmp_path):
        # checkpoints once stored the retired "activation" key, always "relu"
        weights = PRESET_WEIGHTS["sg_ent_infs"]
        full = train(docs, tiny_config(steps=6, task_weights=weights))
        part = train(docs, tiny_config(steps=3, task_weights=weights))
        path = tmp_path / "mid.npz"
        part.checkpoint.save(path)
        old = Checkpoint.load(path)
        old.meta["config"]["activation"] = "relu"
        old_path = tmp_path / "old.npz"
        old.save(old_path)
        loaded = Checkpoint.load(old_path)
        assert loaded.meta["config"]["activation"] == "relu"
        model = model_from_checkpoint(loaded)
        for doc in docs:
            assert predict_document(model, doc) == predict_document(part.model, doc)
        resumed = train(docs, tiny_config(steps=6, task_weights=weights),
                        resume_from=loaded)
        assert loss_trace(resumed) == loss_trace(full)[3:]
        assert params_equal(resumed.checkpoint.params, full.checkpoint.params)

    @pytest.mark.parametrize("perm", ["own", "foreign"])
    def test_checkpoint_with_shuffle_state_resumes(self, docs, tmp_path, perm):
        """Checkpoints once stored the shuffle stream's state, its current
        permutation and the position in it. The document order is now drawn
        from the seed, so these keys are ignored, even when they are wrong."""
        full = train(docs, tiny_config(steps=6))
        # mid-epoch: the next step's document was at perm[2]
        part = train(docs, tiny_config(steps=2))
        rng = ad.named_rng(3, "shuffle")
        own = rng.permutation(len(docs)).tolist()
        part.checkpoint.meta.update(rng_state=rng.bit_generator.state, pos=2,
                                    perm=own if perm == "own" else [7, 8, 9])
        path = tmp_path / "old.npz"
        part.checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert {"rng_state", "perm", "pos"} <= set(loaded.meta)
        resumed = train(docs, tiny_config(steps=6), resume_from=loaded)
        assert loss_trace(resumed) == loss_trace(full)[2:]
        assert params_equal(resumed.checkpoint.params, full.checkpoint.params)
        assert not {"rng_state", "perm", "pos"} & set(resumed.checkpoint.meta)

    @pytest.fixture(scope="class")
    def two_of_four_steps(self, docs):
        """A 2-step checkpoint whose dev selection is its own step, and the
        losses of the uninterrupted 4-step run it resumes to."""
        def run(steps):
            return train(docs, tiny_config(steps=steps, eval_every=2),
                         dev_docs=docs[:1])

        part = run(2)
        assert part.best_step == 2 and part.checkpoint.selected is None
        return part.checkpoint, loss_trace(run(4))

    DELETE = object()
    NAN = float("nan")
    CONFIG = config_to_dict(tiny_config(steps=2, eval_every=2))
    # (changes, error message, or None when the damage leaves a checkpoint
    # that resumes on the uninterrupted run's losses). A change names a
    # meta key, "opt/step_count", or "selected" (the final parameters
    # stored again as the dev selection); DELETE removes the key.
    DAMAGED_META = {
        "no_step": ({"step": DELETE}, "step None is not a count"),
        "step_none": ({"step": None}, "step None is not a count"),
        "step_string": ({"step": "2"}, "step '2' is not a count"),
        "step_bool": ({"step": True}, "step True is not a count"),
        "step_float": ({"step": 2.0}, "step 2.0 is not a count"),
        "step_nan": ({"step": NAN}, "step nan is not a count"),
        "step_negative": ({"step": -1}, "step -1 is not a count"),
        "step_before_best": ({"step": 1}, "best_step 2 is not a step from 1 to 1"),
        "step_past_best": ({"step": 3},
                           "lacks selected parameters, with best_step 2 at step 3"),
        "step_past_optimizer": ({"step": 3, "best_step": None, "best_avg_f1": None},
                                "step_count 2 is not its meta step 3"),
        "no_best_step": ({"best_step": DELETE}, "meta lacks best_step"),
        "best_step_none": ({"best_step": None}, "has no best_step"),
        "best_step_string": ({"best_step": "2"}, "best_step '2' is not a step from 1 to 2"),
        "best_step_bool": ({"best_step": True}, "best_step True is not a step"),
        "best_step_float": ({"best_step": 2.0}, "best_step 2.0 is not a step"),
        "best_step_nan": ({"best_step": NAN}, "best_step nan is not a step"),
        "best_step_negative": ({"best_step": -1}, "best_step -1 is not a step"),
        "best_step_zero": ({"best_step": 0}, "best_step 0 is not a step"),
        "best_step_past_step": ({"best_step": 9}, "best_step 9 is not a step from 1 to 2"),
        "best_step_earlier": ({"best_step": 1},
                              "lacks selected parameters, with best_step 1 at step 2"),
        "no_best_avg_f1": ({"best_avg_f1": DELETE}, "meta lacks best_avg_f1"),
        "best_avg_f1_none": ({"best_avg_f1": None}, "best_avg_f1 None is not an F1"),
        "best_avg_f1_string": ({"best_avg_f1": "x"}, "best_avg_f1 'x' is not an F1 in [0, 1]"),
        "best_avg_f1_int": ({"best_avg_f1": 1}, "best_avg_f1 1 is not an F1"),
        "best_avg_f1_nan": ({"best_avg_f1": NAN}, "best_avg_f1 nan is not an F1"),
        "best_avg_f1_inf": ({"best_avg_f1": float("inf")}, "best_avg_f1 inf is not an F1"),
        "best_avg_f1_negative": ({"best_avg_f1": -0.5}, "best_avg_f1 -0.5 is not an F1"),
        "best_avg_f1_above_one": ({"best_avg_f1": 2.0}, "best_avg_f1 2.0 is not an F1"),
        "best_avg_f1_zero": ({"best_avg_f1": 0.0}, None),
        "no_dev_selection": ({"best_step": None, "best_avg_f1": None}, None),
        "no_config": ({"config": DELETE}, "meta lacks config"),
        "config_none": ({"config": None}, "config is not valid"),
        "config_not_dict": ({"config": 5}, "config is not valid"),
        "config_incomplete": ({"config": {"hidden": 8}}, "config is not valid"),
        "config_nan_clip": ({"config": {**CONFIG, "clip_norm": NAN}},
                            "clip_norm must be finite and > 0"),
        "config_negative_hidden": ({"config": {**CONFIG, "hidden": -1}},
                                   "config is not valid"),
        "config_unknown_key": ({"config": {**CONFIG, "colour": 1}}, "config is not valid"),
        "config_bad_select": ({"config": {**CONFIG, "select": "last"}},
                              "select must be 'best' or 'final'"),
        "config_float_hidden": ({"config": {**CONFIG, "hidden": 8.5}},
                                "config is not valid: hidden must be an integer, got 8.5"),
        "config_bool_steps": ({"config": {**CONFIG, "steps": True}},
                              "config is not valid: steps must be an integer, got True"),
        "config_float_seed": ({"config": {**CONFIG, "seed": 3.0}},
                              "config is not valid: seed must be an integer, got 3.0"),
        "config_float_encoder_dim": (
            {"config": {**CONFIG, "encoder": {**CONFIG["encoder"], "dim": 8.0}}},
            "config is not valid: dim must be an integer, got 8.0"),
        "no_genres": ({"genres": DELETE}, "meta lacks genres"),
        "genres_none": ({"genres": None}, "genres is not a list of strings"),
        "genres_not_list": ({"genres": 5}, "genres is not a list of strings"),
        "genres_not_strings": ({"genres": [1]}, "genres is not a list of strings"),
        "genres_empty": ({"genres": []}, "shape mismatch for pair/genre_embedding"),
        "no_vocab": ({"vocab": DELETE}, "meta lacks vocab"),
        "vocab_none": ({"vocab": None}, "vocab is not a list of strings"),
        "vocab_not_strings": ({"vocab": [[1]]}, "vocab is not a list of strings"),
        "vocab_empty": ({"vocab": []}, "shape mismatch for encoder/embedding"),
        "no_include_aux": ({"include_aux": DELETE}, "lacks include_aux"),
        "include_aux_none": ({"include_aux": None}, "include_aux is not true or false"),
        "include_aux_int": ({"include_aux": 1}, "include_aux is not true or false"),
        "include_aux_flipped": ({"include_aux": True}, "missing parameter head/"),
        "no_step_count": ({"opt/step_count": DELETE},
                          "not a training checkpoint (step_count is not an integer)"),
        "step_count_none": ({"opt/step_count": None}, "step_count is not an integer"),
        "step_count_string": ({"opt/step_count": "2"}, "step_count is not an integer"),
        "step_count_bool": ({"opt/step_count": True}, "step_count is not an integer"),
        "step_count_float": ({"opt/step_count": 2.0}, "step_count is not an integer"),
        "step_count_nan": ({"opt/step_count": NAN}, "step_count is not an integer"),
        "step_count_list": ({"opt/step_count": [1, 2]}, "step_count is not an integer"),
        "step_count_negative": ({"opt/step_count": -1},
                                "step_count -1 is not its meta step 2"),
        "step_count_zero": ({"opt/step_count": 0}, "step_count 0 is not its meta step 2"),
        "step_count_seven": ({"opt/step_count": 7}, "step_count 7 is not its meta step 2"),
        "selected_without_best_step": ({"selected": True, "best_step": None,
                                        "best_avg_f1": None},
                                       "holds selected parameters, with best_step None"),
        "selected_at_final_step": ({"selected": True},
                                   "holds selected parameters, with best_step 2 at step 2"),
    }

    @pytest.mark.parametrize("damage", list(DAMAGED_META))
    def test_damaged_meta_is_rejected(self, docs, two_of_four_steps, damage):
        """Each damage is a CheckpointError naming the fault; where the
        table gives no message, the run resumes as if uninterrupted."""
        changes, message = self.DAMAGED_META[damage]
        part, full_losses = two_of_four_steps
        ckpt = copy.deepcopy(part)
        for key, value in changes.items():
            if key == "selected":
                ckpt.selected = dict(ckpt.params)
                continue
            holder = ckpt.opt if key == "opt/step_count" else ckpt.meta
            key = key.rpartition("/")[2]
            if value is self.DELETE:
                del holder[key]
            else:
                holder[key] = value

        def resume():
            return train(docs, tiny_config(steps=4, eval_every=2),
                         dev_docs=docs[:1], resume_from=ckpt)

        if message is None:
            assert loss_trace(resume()) == full_losses[2:]
        else:
            with pytest.raises(CheckpointError, match=re.escape(message)):
                resume()

    def test_checkpoint_with_other_activation_is_rejected(self, docs):
        part = train(docs, tiny_config(steps=2))
        part.checkpoint.meta["config"]["activation"] = "tanh"
        with pytest.raises(CheckpointError, match="activation 'tanh'"):
            model_from_checkpoint(part.checkpoint)
        with pytest.raises(ValueError, match="activation 'tanh'"):
            train(docs, tiny_config(steps=4), resume_from=part.checkpoint)

    def test_checkpoint_with_retired_encoder_keys_loads_and_resumes(self, docs,
                                                                   tmp_path):
        # checkpoints once stored the encoder's kind, model_name and
        # segment_length; every toy-encoder checkpoint held these values
        full = train(docs, tiny_config(steps=6))
        part = train(docs, tiny_config(steps=3))
        path = tmp_path / "old.npz"
        part.checkpoint.meta["config"]["encoder"].update(
            kind="toy", model_name="", segment_length=384)
        part.checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.meta["config"]["encoder"]["segment_length"] == 384
        model = model_from_checkpoint(loaded)
        for doc in docs:
            assert predict_document(model, doc) == predict_document(part.model, doc)
        resumed = train(docs, tiny_config(steps=6), resume_from=loaded)
        assert loss_trace(resumed) == loss_trace(full)[3:]
        assert params_equal(resumed.checkpoint.params, full.checkpoint.params)

    @pytest.mark.parametrize("which", ["params", "selected"])
    def test_non_finite_parameter_is_rejected(self, docs, which):
        part = train(docs, tiny_config(steps=2))
        ckpt = part.checkpoint
        if which == "selected":
            # selected parameters are stored only for an earlier best step
            ckpt.selected = {n: a.copy() for n, a in ckpt.params.items()}
            ckpt.meta.update(best_step=1, best_avg_f1=0.5)
        getattr(ckpt, which)["score/markable/out_w"][0] = np.nan
        message = "parameter score/markable/out_w holds non-finite values"
        with pytest.raises(CheckpointError, match=message):
            model_from_checkpoint(ckpt)
        with pytest.raises(CheckpointError, match=message):
            train(docs, tiny_config(steps=4), resume_from=ckpt)

    DAMAGE = {
        "unknown_name": "optimizer state m/no/such names no parameter",
        "m_without_v": "optimizer state has m/encoder/embedding without v/encoder/embedding",
        "v_without_m": "optimizer state has v/encoder/embedding without m/encoder/embedding",
        "shape": r"shape mismatch for optimizer state m/encoder/embedding: checkpoint \(1,\)",
        "non_finite": "optimizer state v/encoder/embedding holds non-finite values",
    }

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_optimizer_state_is_rejected(self, docs, damage):
        part = train(docs, tiny_config(steps=2))
        arrays = part.checkpoint.opt["arrays"]
        if damage == "unknown_name":
            arrays["m/no/such"] = arrays["v/no/such"] = np.zeros(3)
        elif damage == "m_without_v":
            del arrays["v/encoder/embedding"]
        elif damage == "v_without_m":
            del arrays["m/encoder/embedding"]
        elif damage == "shape":
            arrays["m/encoder/embedding"] = np.zeros(1)
        else:
            arrays["v/encoder/embedding"][0, 0] = np.nan
        with pytest.raises(CheckpointError, match=self.DAMAGE[damage]):
            train(docs, tiny_config(steps=4), resume_from=part.checkpoint)

    def test_parameter_without_moments_resumes(self, docs):
        # a parameter with no gradient yet has no moments
        part = train(docs, tiny_config(steps=2))
        arrays = part.checkpoint.opt["arrays"]
        del arrays["m/encoder/embedding"], arrays["v/encoder/embedding"]
        resumed = train(docs, tiny_config(steps=3), resume_from=part.checkpoint)
        assert "m/encoder/embedding" in resumed.checkpoint.opt["arrays"]

    def test_checkpoint_with_pretrained_encoder_is_rejected(self, docs):
        part = train(docs, tiny_config(steps=2))
        part.checkpoint.meta["config"]["encoder"].update(
            kind="pretrained", model_name="bert-base", segment_length=384)
        with pytest.raises(CheckpointError, match="'pretrained' is retired.*features"):
            model_from_checkpoint(part.checkpoint)
        with pytest.raises(ValueError, match="'pretrained' is retired"):
            train(docs, tiny_config(steps=4), resume_from=part.checkpoint)

    def test_resume_keeps_the_dev_selection(self, docs, tmp_path):
        def run(steps, resume_from=None):
            return train(docs, tiny_config(steps=steps, eval_every=2),
                         dev_docs=docs[:1], resume_from=resume_from)

        full = run(8)
        # selected before the resume point, so only the checkpoint knows it
        assert full.best_step <= 4 and full.checkpoint.selected is not None
        path = tmp_path / "mid.npz"
        run(4).checkpoint.save(path)
        # the best step is the checkpoint's own, and then an earlier one
        for resumed in (run(8, Checkpoint.load(path)), run(8, full.checkpoint)):
            assert (resumed.best_step, resumed.best_avg_f1) == \
                (full.best_step, full.best_avg_f1)
            assert params_equal(resumed.checkpoint.selected, full.checkpoint.selected)
            assert params_equal(resumed.model.store.state(), full.model.store.state())

    @pytest.mark.parametrize("f1s,best_step", [((0.1, 0.3, 0.2, 0.4), 4),
                                               ((0.1, 0.4, 0.2, 0.3), 2)],
                             ids=["moves_to_step_4", "stays_at_step_2"])
    def test_resume_selection_moves_as_uninterrupted(self, docs, monkeypatch,
                                                     f1s, best_step):
        """The tiny model scores dev F1 0.0 at every step, so evaluate is
        stubbed: its avg F1 is f1s[step - 1], for the step that train()
        logged last. A later evaluation then beats an earlier one across
        the resume, or does not."""
        logged = []

        def evaluate(gold, predicted):
            f1 = SimpleNamespace(f1=f1s[logged[-1] - 1])
            return SimpleNamespace(avg_f1=f1.f1, muc=f1, b_cubed=f1, ceaf_phi4=f1)

        def run(steps, resume_from=None):
            return train(docs, tiny_config(steps=steps, eval_every=1),
                         dev_docs=docs[:1], resume_from=resume_from,
                         log_fn=lambda rec: logged.append(rec["step"]))

        monkeypatch.setattr("corefmtl.training.evaluate", evaluate)
        full = run(4)
        assert (full.best_step, full.best_avg_f1) == (best_step, max(f1s))
        part = run(2)
        assert part.best_step == 2
        resumed = run(4, part.checkpoint)
        assert (resumed.best_step, resumed.best_avg_f1) == (best_step, max(f1s))
        assert resumed.records == full.records[len(part.records):]
        assert (resumed.checkpoint.selected is None) == (best_step == 4)
        if best_step == 2:
            assert params_equal(resumed.checkpoint.selected, full.checkpoint.selected)
        assert params_equal(resumed.model.store.state(), full.model.store.state())
        assert params_equal(resumed.checkpoint.params, full.checkpoint.params)

    def test_resume_to_an_earlier_step_is_rejected(self, docs):
        part = train(docs, tiny_config(steps=6))
        with pytest.raises(ValueError, match="step 3 .* step 6"):
            train(docs, tiny_config(steps=3), resume_from=part.checkpoint)
        again = train(docs, tiny_config(steps=6), resume_from=part.checkpoint)
        assert loss_trace(again) == []
        assert again.checkpoint.meta["step"] == 6
        assert again.checkpoint.opt["step_count"] == 6
        assert params_equal(again.checkpoint.params, part.checkpoint.params)

    def test_resume_rejects_changed_config(self, docs):
        part = train(docs, tiny_config(steps=2))
        with pytest.raises(ValueError, match="differs"):
            train(docs, tiny_config(steps=4, hidden=16),
                  resume_from=part.checkpoint)

    def test_resume_rejects_changed_aux_mode(self, docs):
        part = train(docs, tiny_config(steps=2))
        with pytest.raises(ValueError, match="include_aux"):
            train(docs, tiny_config(steps=4), include_aux=True,
                  resume_from=part.checkpoint)

    def test_nonfinite_loss_aborts_with_location(self, docs):
        # finite parameters whose scores overflow; a NaN parameter is a
        # CheckpointError at resume
        part = train(docs, tiny_config(steps=1))
        ckpt = part.checkpoint
        width = ckpt.params["span/width_embedding"]
        ckpt.params["span/width_embedding"] = np.full_like(width, 1e300)
        with pytest.raises(NumericError, match=r"step 2 on document \w+/synth"), \
                np.errstate(over="ignore", invalid="ignore"):
            train(docs, tiny_config(steps=2), resume_from=ckpt)


ZERO_TOKEN_DOCS = [make_document([], doc_key="test/no_sentences"),
                   make_document([[], []], doc_key="test/empty_sentences")]


class TestZeroTokenDocuments:
    @pytest.mark.parametrize("empty", ZERO_TOKEN_DOCS, ids=lambda d: d.doc_key)
    def test_predict_gives_empty_prediction(self, empty):
        cfg = tiny_config(task_weights=TaskWeights(0.5, 0.5, 0.0, 0.0))
        model = MtlCorefModel(cfg.model_config(("test",)), cfg.seed, ["a"])
        assert predict_document(model, empty) == PredictionResult(empty.doc_key, [])

    @pytest.mark.parametrize("empty", ZERO_TOKEN_DOCS, ids=lambda d: d.doc_key)
    def test_train_names_the_document(self, docs, empty):
        with pytest.raises(CorpusError, match=f"{empty.doc_key}: training "
                                              "document has no tokens"):
            train(docs + [empty], tiny_config())


class TestDevDocuments:
    def test_invalid_dev_document_fails_before_step_one(self, docs):
        shared = make_document([["Ana", "saw", "Bo"]], clusters=[[(0, 0), (1, 1)],
                                                                [(0, 0), (2, 2)]],
                               doc_key="test/shared_span")
        records = []
        with pytest.raises(CorpusError, match=r"test/shared_span: span \(0, 0\) "
                                              "appears in clusters 0 and 1"):
            train(docs, tiny_config(steps=2, eval_every=2), dev_docs=[shared],
                  log_fn=records.append)
        assert records == []


class TestZeroPairStep:
    def test_pair_parameters_untouched_without_pairs(self):
        # two tokens at prune ratio 0.4 keep one span, so no pair is scored:
        # the pair parameters get no gradient, and AdamW must not decay them
        doc = make_document([["Ana", "left"]], mentions=[Mention(0, 0)])
        cfg = tiny_config(steps=1, prune_ratio=0.4, weight_decay=0.5,
                          task_weights=PRESET_WEIGHTS["sg"])
        result = train([doc], cfg)
        fresh = MtlCorefModel(cfg.model_config((doc.genre,)), cfg.seed,
                              build_vocab([doc], cfg.encoder.vocab_size))
        params = result.checkpoint.params
        pair = [n for n in fresh.store.names() if n.startswith(("score/pair/", "pair/"))]
        assert pair
        for name in pair:
            assert np.array_equal(params[name], fresh.store[name].data), name
        # the step did train: the mention scorer moved
        assert not np.array_equal(params["score/mention/out_w"],
                                  fresh.store["score/mention/out_w"].data)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value,message", [
        ("dropout", 1.0, "dropout"),
        ("dropout", -0.5, "dropout"),
        ("select", "bset", "select"),
        ("max_span_width", 0, "max_span_width must be >= 1"),
        ("prune_ratio", float("nan"), "prune_ratio must be finite and > 0"),
        ("prune_ratio", 0.0, "prune_ratio must be finite and > 0"),
        ("top_antecedents", -1, "top_antecedents must be >= 1"),
        ("hidden", 0, "hidden must be >= 1"),
        ("hidden", -1, "hidden must be >= 1"),
        ("feature_dim", -2, "feature_dim must be >= 0"),
        ("ffnn_depth", -1, "ffnn_depth must be >= 0"),
        ("clip_norm", -1.0, "clip_norm must be finite and > 0"),
        ("clip_norm", 0.0, "clip_norm must be finite and > 0"),
        ("clip_norm", float("nan"), "clip_norm must be finite and > 0"),
        ("weight_decay", -1.0, "weight_decay must be finite and >= 0"),
        ("weight_decay", float("inf"), "weight_decay must be finite and >= 0"),
        ("task_learning_rate", float("nan"), "learning rates must be finite and > 0"),
        ("encoder_learning_rate", float("inf"), "learning rates must be finite and > 0"),
        ("eval_every", -1, "eval_every must be >= 0"),
        ("hidden", 8.5, "hidden must be an integer, got 8.5"),
        ("steps", 2.5, "steps must be an integer, got 2.5"),
        ("seed", 3.0, "seed must be an integer, got 3.0"),
        ("eval_every", 1.5, "eval_every must be an integer, got 1.5"),
        ("max_span_width", True, "max_span_width must be an integer, got True"),
        ("top_antecedents", 10.0, "top_antecedents must be an integer, got 10.0"),
    ])
    def test_bad_value_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_smallest_valid_sizes_accepted(self):
        cfg = TrainConfig(hidden=1, feature_dim=0, ffnn_depth=0, weight_decay=0.0,
                          encoder=EncoderConfig(dim=1, vocab_size=1, window=0))
        assert (cfg.hidden, cfg.feature_dim, cfg.ffnn_depth) == (1, 0, 0)


class TestHeadsRunOnDemand:
    def test_sg_runs_only_the_singleton_head(self, docs, monkeypatch):
        """Each head that runs runs once a step, as one autodiff.ffnn_node
        that reruns its tiles in backward itself."""
        ran = []
        real_ffnn = mtl.ffnn

        def recording_ffnn(x, store, prefix, *args, **kwargs):
            ran.append(prefix)
            return real_ffnn(x, store, prefix, *args, **kwargs)

        monkeypatch.setattr(mtl, "ffnn", recording_ffnn)
        train(docs, tiny_config(steps=2, task_weights=PRESET_WEIGHTS["sg"]))
        assert ran == ["head/singleton"] * 2


class TestConfigDict:
    def test_round_trip(self):
        cfg = tiny_config(task_weights=TaskWeights(0.55, 0.15, 0.15, 0.15))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_through_json(self):
        cfg = tiny_config()
        blob = json.dumps(config_to_dict(cfg))
        assert config_from_dict(json.loads(blob)) == cfg


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


def grad_config():
    return TrainConfig(encoder=EncoderConfig(dim=5, vocab_size=32, window=1),
                       hidden=6, ffnn_depth=1, feature_dim=3,
                       max_span_width=4, seed=11, dropout=0.0)


class TestGradientCheck:
    def test_all_tasks_close_to_finite_differences(self):
        report = gradient_check(grad_fixture(), grad_config(),
                                weights=TaskWeights(1.0, 1.0, 1.0, 1.0))
        assert report.max_rel_err < 1e-4
        assert report.worst_param in report.per_param
        assert report.per_param[report.worst_param] == report.max_rel_err

    def test_features_model_close_to_finite_differences(self, tmp_path):
        doc = grad_fixture()
        rng = np.random.default_rng(4)
        path = tmp_path / "features.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **{doc.doc_key: rng.normal(size=(doc.num_tokens, 4))})
        cfg = dataclasses.replace(grad_config(), encoder=EncoderConfig(
            dim=5, features=str(path)))
        report = gradient_check(doc, cfg, weights=TaskWeights(1.0, 1.0, 1.0, 1.0))
        assert report.max_rel_err < 1e-4
        assert {"encoder/adapt_w", "encoder/adapt_b"} <= set(report.per_param)
        assert "encoder/embedding" not in report.per_param

    def test_zero_aux_weights_leave_heads_untouched(self):
        report = gradient_check(grad_fixture(), grad_config(),
                                weights=TaskWeights(1.0, 0.0, 0.0, 0.0))
        assert report.max_rel_err < 1e-4
        head_errs = [err for name, err in report.per_param.items()
                     if name.startswith("head/")]
        assert head_errs and all(err == 0.0 for err in head_errs)


class TestMentionScorerSupervision:
    """The singleton task trains score/mention on every candidate span, so a
    gold mention that pruning drops still gets a signal to rise."""

    def backprop(self, weights):
        doc = grad_fixture()
        # a budget of 2 kept spans leaves at least 2 of the 4 gold mentions out
        cfg = dataclasses.replace(grad_config(), prune_ratio=0.1)
        vocab = build_vocab([doc], cfg.encoder.vocab_size)
        model = MtlCorefModel(cfg.model_config((doc.genre,) if doc.genre else ()),
                              cfg.seed, vocab)
        tot, _, fp = model.loss(doc, weights)
        fp.combined.retain_grad()
        if fp.mention is not None:
            fp.mention.retain_grad()
        tot.backward()
        gold = doc.mention_map()
        kept = set(fp.kept)
        unkept = [i for i, c in enumerate(fp.spans) if c.span in gold and i not in kept]
        assert unkept
        return model, fp, np.array(unkept)

    def test_unkept_gold_mentions_reach_the_mention_scorer(self):
        model, fp, unkept = self.backprop(TaskWeights(1.0, 0.5, 0.0, 0.0))
        sigmoid = 1.0 / (1.0 + np.exp(-fp.mention.data[unkept]))
        npt.assert_allclose(fp.mention.grad[unkept],
                            0.5 * (sigmoid - 1.0) / len(fp.spans), rtol=1e-12)
        assert np.all(fp.mention.grad[unkept] < 0.0)
        assert all(np.any(t.grad != 0.0)
                   for t in model.store.tensors("score/mention/"))

    def test_coref_only_sends_unkept_spans_no_gradient(self):
        """Without the singleton task no mention vector is built, and the
        unary scores of unkept gold spans get no gradient."""
        _, fp, unkept = self.backprop(TaskWeights(1.0, 0.0, 0.0, 0.0))
        assert fp.mention is None
        assert np.all(fp.combined.grad[unkept] == 0.0)


class TestBackwardMemory:
    def model_and_document(self, top_antecedents=10, sentences=25):
        """A hidden-64 model and a random document of 20-token sentences,
        500 tokens by default."""
        cfg = tiny_config(encoder=EncoderConfig(dim=32, vocab_size=64, window=1),
                          feature_dim=8, hidden=64, max_span_width=6,
                          top_antecedents=top_antecedents)
        vocab = build_vocab(generate_corpus(2, seed=5), 64)
        model = MtlCorefModel(cfg.model_config(("test",)), cfg.seed, vocab)
        rng = np.random.default_rng(0)
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(sentences)])
        return model, doc

    def test_backward_frees_the_tape_it_consumes(self, monkeypatch):
        """backward() drops each node's gradient, closure and parents once
        the node's closure has run, so most of the tape is gone when it
        returns. The blocks of spans and pairs keep only their scores on
        the tape, and backward rebuilds one block's activations at a time
        (autodiff.recompute): a 2000-token step in blocks of 64 rows peaks
        at 9.6 MB, 48.1 MB when the blocks' activations waited on the
        tape."""
        model, doc = self.model_and_document()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tot, _, _ = model.loss(doc, PRESET_WEIGHTS["sg_ent_infs"], train_step=1)
            built, _ = tracemalloc.get_traced_memory()
            tot.backward()
            end, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tape = built - start
        assert end < built - tape / 2
        monkeypatch.setattr(ad, "PAIR_BLOCK", 64)
        model, doc = self.model_and_document(sentences=100)
        assert doc.num_tokens == 2000
        assert self.step_peak(model, doc) < 35.0e6

    def test_training_step_peak(self):
        """The peak of a whole step's loss and backward. The auxiliary
        heads and the blocks of spans and pairs keep only their inputs and
        outputs on the tape (autodiff.recompute, and FFNN nodes that rerun
        their own tiles), the encoder's lookup and mix and the pair scorer
        are each one node, and each gradient is freed once its closure is
        done with it: 2.3 MB here, 3.3 MB when the unary scorers and the
        heads held a block's hidden layers in backward, 5.5 MB in
        blocks of 1024 rows with the encoder rerun in backward, 6.6 MB when a span
        block's representations were a graph of twelve nodes (now one,
        autodiff.span_representation), 8.2 MB when the encoder and the
        heads also kept their activations on the tape, 12.7 MB when the
        blocks did too, 18.2 MB without any of these."""
        assert self.step_peak(*self.model_and_document()) < 6.0e6

    def train_one_step(self):
        """One step of train() at hidden 256 on a 100-token document: the
        result, and the bytes traced at its end and at its peak, above
        those at its start."""
        _, doc = self.model_and_document(sentences=5)
        cfg = tiny_config(steps=1, encoder=EncoderConfig(dim=32, vocab_size=64, window=1),
                          feature_dim=8, hidden=256, max_span_width=6,
                          task_weights=PRESET_WEIGHTS["sg_ent_infs"])
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = train([doc], cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held - start, peak - start

    def test_whole_train_peak(self):
        """One step of train(), the checkpoint included, peaks at 5.9 MB
        (7.9 MB when the unary scorers and the heads held a block's hidden
        layers in backward). Its parameters take 1.9 MB and Adam's moments
        2.7 MB; the peak was 10.8 MB when the spent gradients and copies of
        both moments sat beside the checkpoint."""
        result, _, peak = self.train_one_step()
        assert result.checkpoint.opt["step_count"] == 1
        assert peak < 9.0e6

    def test_train_result_holds_each_parameter_once(self):
        """The checkpoint of a one-step train() shares the model's
        parameter arrays (ParameterStore.state) and Adam's moments, so the
        result holds the parameters (1.9 MB) and the moments (2.7 MB) once
        each: 4.7 MB, 6.7 MB when the checkpoint copied the parameters."""
        result, held, _ = self.train_one_step()
        params = sum(a.nbytes for a in result.model.store.state().values())
        moments = sum(a.nbytes for a in result.checkpoint.opt["arrays"].values())
        assert held < moments + 1.5 * params

    def test_long_document_step_peak(self):
        """A 4000-token step: the encoder's window, concat and mix, and the
        heads' hidden layers, are rebuilt in backward rather than kept on
        the tape, so the step peaks at 13.0 MB (15.6 MB when the unary
        scorers and the heads rebuilt a block's hidden layers at once, 20.2
        MB in blocks of 1024 rows with the encoder's whole graph rerun),
        35.2 MB when they waited on the tape."""
        model, doc = self.model_and_document(sentences=200)
        assert doc.num_tokens == 4000
        assert self.step_peak(model, doc) < 27.0e6

    def test_benchmark_shape_step_peak(self):
        """A step at the benchmark's long-document shape: 1000 tokens in
        20-token sentences, hidden 150, encoder dim 64, spans up to 30
        tokens wide, two hidden layers per FFNN, dropout 0.3. In blocks of
        512 rows, with the toy encoder one tape node (autodiff.window_mix)
        and a pair backward that frees each kept-span gradient term once
        used, it peaked at 12.5 MB; 15.4 MB in blocks of 1024 with the
        encoder's rerun and the old pair backward, 13.2 MB with only the
        blocks halved. With the pair scorer one tiled node it peaked at
        10.9 MB, and with every FFNN one, at 9.1 MB."""
        cfg = tiny_config(encoder=EncoderConfig(dim=64, window=1), feature_dim=20,
                          hidden=150, ffnn_depth=2, dropout=0.3, max_span_width=30,
                          top_antecedents=50)
        vocab = build_vocab(generate_corpus(2, seed=5), cfg.encoder.vocab_size)
        model = MtlCorefModel(cfg.model_config(("test",)), cfg.seed, vocab)
        rng = np.random.default_rng(0)
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(50)])
        assert doc.num_tokens == 1000
        assert self.step_peak(model, doc) < 13.5e6

    def test_benchmark_shape_train_peak(self):
        """One step of train(), the model, the optimizer and the checkpoint
        included, at the benchmark's long-document shape (hidden 150,
        encoder dim 64, two hidden layers per FFNN, spans up to 30 tokens,
        50 antecedents, dropout 0.3) on a 600-token document: 10.4 MB.
        Each FFNN, the unary scorers of a block of spans and each head, is
        one node that works 128 rows at a time, forward and backward; it
        peaked at 12.7 MB when their backward held a block's hidden
        layers."""
        cfg = tiny_config(steps=1, encoder=EncoderConfig(dim=64, window=1),
                          feature_dim=20, hidden=150, ffnn_depth=2, dropout=0.3,
                          max_span_width=30, top_antecedents=50,
                          task_weights=PRESET_WEIGHTS["sg_ent_infs"])
        vocab = build_vocab(generate_corpus(2, seed=5), cfg.encoder.vocab_size)
        rng = np.random.default_rng(0)
        doc = make_document([[vocab[i] for i in rng.integers(len(vocab), size=20)]
                             for _ in range(30)])
        assert doc.num_tokens == 600
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = train([doc], cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.checkpoint.opt["step_count"] == 1
        assert peak - start < 11.5e6

    def step_peak(self, model, doc) -> int:
        """Bytes a step's loss and backward add at their peak."""
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            model.loss(doc, PRESET_WEIGHTS["sg_ent_infs"], train_step=1)[0].backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start

    def test_pair_blocks_bound_the_backward(self, monkeypatch):
        """With a tape too, the pair scorer runs one block of pairs at a
        time, so its backward builds one block's gradients and pair
        products at a time, and the step peaks lower than in one block."""
        model, doc = self.model_and_document(top_antecedents=50)
        monkeypatch.setattr(ad, "PAIR_BLOCK", 10 ** 9)
        whole = self.step_peak(model, doc)
        monkeypatch.setattr(ad, "PAIR_BLOCK", 64)
        with ad.no_grad():
            fp = model.forward(doc)
        assert sum(len(sl) for sl in fp.shortlists) > 100 * ad.PAIR_BLOCK
        del fp
        assert self.step_peak(model, doc) < 0.7 * whole


class TestBlockRecompute:
    def test_block_recompute_equals_the_inline_graph(self, monkeypatch):
        """Backward reruns each block of spans (autodiff.recompute), the
        model's only recompute site, and a rerun draws the dropout masks
        of the forward pass: the loss and every gradient outside encoder/
        are those of the inline graph, bit for bit. The token embeddings'
        gradient is summed per block first, so encoder/ gradients agree to
        rounding. (The pair blocks and the heads are no recompute site:
        each is one node that reruns its own tiles in backward.)"""
        monkeypatch.setattr(ad, "PAIR_BLOCK", 3)
        docs = generate_corpus(2, seed=5)
        doc = max(docs, key=lambda d: d.num_tokens)
        cfg = tiny_config(dropout=0.3)
        vocab = build_vocab(docs, cfg.encoder.vocab_size)

        def step():
            model = MtlCorefModel(cfg.model_config(("test",)), cfg.seed, vocab)
            tot, _, fp = model.loss(doc, PRESET_WEIGHTS["sg_ent_infs"], train_step=1)
            tot.backward()
            return tot.item(), fp, {name: model.store[name].grad
                                    for name in model.store.names()
                                    if model.store[name].grad is not None}

        loss, fp, grads = step()
        assert min(len(fp.spans), sum(len(sl) for sl in fp.shortlists)) > 5 * ad.PAIR_BLOCK
        monkeypatch.setattr(ad, "recompute", lambda fn, x: fn(x))
        inline_loss, _, inline = step()
        assert loss == inline_loss
        assert grads.keys() == inline.keys()
        for name, want in inline.items():
            got = grads[name]
            if name.startswith("encoder/"):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
            else:
                npt.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("preset", ["sg_ent_infs", "baseline"])
    def test_backward_consumes_every_tape_node(self, monkeypatch, preset):
        """Every tensor a training step builds with a backward closure, the
        reruns of its recompute nodes included, is released by backward():
        a step builds no node that nothing reads. The document runs in
        several blocks of spans and of pairs, and each auxiliary head has a
        labelled kept span, so each head's loss reads its logits. Without
        the singleton task no loss reads the candidates' mention scores,
        so the step joins no mention vector."""
        monkeypatch.setattr(ad, "PAIR_BLOCK", 64)
        doc, cfg, vocab = self.step_inputs()
        model = MtlCorefModel(cfg.model_config(("test",)), cfg.seed, vocab)
        built = []
        init = ad.Tensor.__init__

        def recording_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if tensor._backward is not None:
                built.append(tensor)

        monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
        tot, _, fp = model.loss(doc, PRESET_WEIGHTS[preset], train_step=1)
        labels = mtl.assign_aux_labels(fp.kept_spans, doc)
        assert all((labels[task] >= 0).any() for task in mtl.HEAD_LABELS)
        assert len(ad.row_blocks(len(fp.spans))) > 2
        tot.backward()
        unconsumed = [t for t in built if t._backward is not ad._released]
        assert not unconsumed, f"{len(unconsumed)} of {len(built)} nodes never consumed"

    def step(self, doc, cfg, vocab):
        """The loss of one sg_ent_infs step in blocks of 3 rows, and every
        parameter's gradient."""
        model = MtlCorefModel(cfg.model_config(("test",)), cfg.seed, vocab)
        tot, _, _ = model.loss(doc, PRESET_WEIGHTS["sg_ent_infs"], train_step=1)
        tot.backward()
        return tot.item(), {name: model.store[name].grad
                            for name in model.store.names()
                            if model.store[name].grad is not None}

    def assert_steps_bit_equal(self, first, second):
        (loss, grads), (other_loss, other) = first, second
        assert loss == other_loss
        assert grads.keys() == other.keys()
        assert any(name.startswith("encoder/") for name in grads)
        for name, want in other.items():
            npt.assert_array_equal(grads[name], want, err_msg=name)

    def step_inputs(self):
        docs = generate_corpus(2, seed=5)
        doc = max(docs, key=lambda d: d.num_tokens)
        cfg = tiny_config(dropout=0.3)
        return doc, cfg, build_vocab(docs, cfg.encoder.vocab_size)

    @pytest.mark.parametrize("encoder", ["toy", "features"])
    def test_ffnn_nodes_equal_the_composed_dense_chain(self, monkeypatch, tmp_path,
                                                       encoder):
        """Each FFNN of a step, both unary scorers of a block of spans and
        each auxiliary head, is one autodiff.ffnn_node. With the span and
        pair blocks as they are, the loss and every gradient, encoder/
        included, agree to 1e-12 with a step whose FFNNs are chains of
        dense nodes (oracles.ffnn_reference): the node sums its
        gradients a tile at a time. The kept spans outnumber the tile,
        so each head runs in more than one."""
        monkeypatch.setattr(ad, "PAIR_BLOCK", 3)
        monkeypatch.setattr(ad, "GATHER_ROWS", 8)
        doc, cfg, vocab = self.step_inputs()
        if encoder == "features":
            path = tmp_path / "features.npz"
            rng = np.random.default_rng(2)
            with open(path, "wb") as fh:
                np.savez(fh, **{doc.doc_key: rng.normal(size=(doc.num_tokens, 5))})
            cfg = tiny_config(dropout=0.3,
                              encoder=EncoderConfig(dim=8, features=str(path)))
            vocab = []
        rows = []
        fused = ad.ffnn_node

        def recording(x, stacks, *args, **kwargs):
            rows.append((x.shape[0], len(stacks)))
            return fused(x, stacks, *args, **kwargs)

        monkeypatch.setattr(ad, "ffnn_node", recording)
        loss, grads = self.step(doc, cfg, vocab)
        heads = [n for n, stacks in rows if stacks == 1]
        assert len(heads) == 3 and heads == [heads[0]] * 3
        assert heads[0] > 2 * ad.GATHER_ROWS
        assert all(stacks == 2 and n <= ad.PAIR_BLOCK for n, stacks in rows if stacks != 1)
        monkeypatch.setattr(ad, "ffnn_node", ffnn_reference)
        chain_loss, chain = self.step(doc, cfg, vocab)
        assert loss == pytest.approx(chain_loss, rel=1e-12, abs=0.0)
        assert grads.keys() == chain.keys()
        assert any(name.startswith("encoder/") for name in grads)
        for name, want in chain.items():
            scale = np.max(np.abs(want), initial=0.0)
            assert np.max(np.abs(grads[name] - want), initial=0.0) <= 1e-12 * scale, name

    def test_fused_encoder_equals_the_composed_graph(self, monkeypatch):
        """The toy encoder's lookup and mix are one tape node
        (autodiff.window_mix): with everything else as it is, the loss and
        every gradient,
        encoder/ included, are bit-equal to a step that builds the
        composed graph (oracles.window_mix_reference) instead."""
        monkeypatch.setattr(ad, "PAIR_BLOCK", 3)
        doc, cfg, vocab = self.step_inputs()
        fused = self.step(doc, cfg, vocab)
        monkeypatch.setattr(ad, "window_mix", window_mix_reference)
        self.assert_steps_bit_equal(fused, self.step(doc, cfg, vocab))


class TestUnlabelledHeads:
    def test_a_head_without_labelled_kept_spans_is_not_built(self, monkeypatch):
        """A step whose kept spans carry no entity-type label runs no
        head/entity_type block, and its entity-type loss is the exact 0.
        The loss, each task's value, every gradient, and a two-step
        train()'s records and parameters, are bit-equal to those of steps
        that build the head."""
        docs = generate_corpus(2, seed=5)
        typed = max(docs, key=lambda d: d.num_tokens)
        doc = dataclasses.replace(typed, gold_mentions=[
            dataclasses.replace(m, entity_type=UNKNOWN) for m in typed.gold_mentions])
        cfg = tiny_config(steps=2, dropout=0.3, task_weights=PRESET_WEIGHTS["sg_ent_infs"])
        vocab = build_vocab(docs, cfg.encoder.vocab_size)
        heads_run = []
        real_ffnn = mtl.ffnn

        def counting(x, store, prefix, *args, **kwargs):
            heads_run.append(prefix.removeprefix("head/"))
            return real_ffnn(x, store, prefix, *args, **kwargs)

        def run():
            heads_run.clear()
            model = MtlCorefModel(cfg.model_config(("test",)), cfg.seed, vocab)
            tot, values, fp = model.loss(doc, cfg.task_weights, train_step=1)
            tot.backward()
            grads = {name: model.store[name].grad for name in model.store.names()
                     if model.store[name].grad is not None}
            ran = sorted(set(heads_run))
            result = train([doc], cfg)
            return tot.item(), values, grads, ran, fp.labels, result

        monkeypatch.setattr(mtl, "ffnn", counting)
        loss, values, grads, ran, labels, result = run()
        assert not (labels["entity_type"] >= 0).any()
        assert (labels["info_status"] >= 0).any()
        assert ran == ["info_status", "singleton"]
        assert values["entity_type"] == 0.0
        monkeypatch.setattr(model_module, "labelled_tasks", lambda tasks, labels: tasks)
        built_loss, built_values, built_grads, built_ran, _, built = run()
        assert built_ran == ["entity_type", "info_status", "singleton"]
        assert loss == built_loss and values == built_values
        assert grads.keys() == built_grads.keys()
        for name, want in built_grads.items():
            npt.assert_array_equal(grads[name], want, err_msg=name)
        assert result.records == built.records
        assert params_equal(result.checkpoint.params, built.checkpoint.params)


class TestStability:
    def test_small_lr_descends_on_one_document(self):
        doc = grad_fixture()
        cfg = tiny_config(steps=50, task_learning_rate=1e-4,
                          encoder_learning_rate=1e-4, weight_decay=0.0,
                          dropout=0.0, seed=7)
        result = train([doc], cfg)
        losses = [r["loss"] for r in result.records]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]
