"""Tests for the classifier, the synthetic LRA task, and training."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.transformer.lra import LRATask, bayes_accuracy, dataset, generate_split
from repro.transformer.masks import random_vector_mask
from repro.transformer.model import SparseTransformerClassifier, TransformerConfig
from repro.transformer.training import (
    evaluate,
    evaluate_quantized,
    train,
)

SMALL = TransformerConfig(
    vocab=8, seq_len=32, d_model=16, num_heads=2, num_layers=1, d_ff=32
)


class TestLRATask:
    def test_deterministic(self):
        t = LRATask(seq_len=64)
        x1, y1 = generate_split(t, 100, split_seed=1)
        x2, y2 = generate_split(t, 100, split_seed=1)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_splits_differ(self):
        t = LRATask(seq_len=64)
        x1, _ = generate_split(t, 100, split_seed=1)
        x2, _ = generate_split(t, 100, split_seed=2)
        assert not np.array_equal(x1, x2)

    def test_roughly_balanced(self):
        t = LRATask(seq_len=64)
        _, y = generate_split(t, 2000, split_seed=3)
        assert 0.3 < y.mean() < 0.7

    def test_bayes_ceiling(self):
        assert bayes_accuracy(LRATask(label_noise=0.35)) == pytest.approx(0.65)

    def test_dataset_shapes(self):
        t = LRATask(seq_len=32)
        xtr, ytr, xte, yte = dataset(t, n_train=64, n_test=16)
        assert xtr.shape == (64, 32) and yte.shape == (16,)


class TestModel:
    def test_forward_shape(self):
        model = SparseTransformerClassifier(SMALL, seed=0)
        ids = np.random.default_rng(0).integers(0, 8, size=(4, 32))
        assert model.forward(ids).shape == (4, 2)

    def test_rejects_wrong_length(self):
        model = SparseTransformerClassifier(SMALL, seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 16), dtype=np.int64))

    def test_backward_touches_all_parameters(self):
        model = SparseTransformerClassifier(SMALL, seed=0)
        ids = np.random.default_rng(1).integers(0, 8, size=(4, 32))
        logits = model.forward(ids)
        model.backward(np.ones_like(logits))
        grads = [float(np.abs(p.grad).sum()) for p in model.parameters()]
        assert all(g > 0 for g in grads)

    def test_quantized_forward_runs(self):
        model = SparseTransformerClassifier(SMALL, seed=0)
        mask = random_vector_mask(32, 0.3, vector_length=8, seed=1)
        ids = np.random.default_rng(2).integers(0, 8, size=(2, 32))
        q = {"mask": mask, "softmax_bits": 8, "qkv_bits": 8}
        out = model.forward(ids, quantized=q)
        assert np.isfinite(out).all()


class TestTraining:
    def test_loss_decreases(self):
        task = LRATask(vocab=8, seq_len=32, label_noise=0.1)
        x, y = generate_split(task, 256, split_seed=1)
        result = train(SMALL, x, y, epochs=3, batch=32, lr=2e-3, seed=0)
        head = np.mean(result.losses[:4])
        tail = np.mean(result.losses[-4:])
        assert tail < head

    def test_learns_above_chance(self):
        task = LRATask(vocab=8, seq_len=32, label_noise=0.1)
        xtr, ytr = generate_split(task, 512, split_seed=1)
        xte, yte = generate_split(task, 256, split_seed=2)
        result = train(SMALL, xtr, ytr, epochs=6, batch=32, lr=2e-3, seed=0)
        acc = evaluate(result.model, xte, yte)
        assert acc > 0.55

    def test_sparse_mask_trains(self):
        task = LRATask(vocab=8, seq_len=32, label_noise=0.1)
        xtr, ytr = generate_split(task, 256, split_seed=1)
        mask = random_vector_mask(32, 0.3, vector_length=8, seed=4)
        result = train(SMALL, xtr, ytr, mask=mask, epochs=2, batch=32, seed=0)
        assert np.isfinite(result.losses).all()

    def test_quantized_eval_close_to_float(self):
        task = LRATask(vocab=8, seq_len=32, label_noise=0.1)
        xtr, ytr = generate_split(task, 512, split_seed=1)
        xte, yte = generate_split(task, 128, split_seed=2)
        mask = random_vector_mask(32, 0.3, vector_length=8, seed=4)
        result = train(SMALL, xtr, ytr, mask=mask, epochs=5, batch=32, lr=2e-3, seed=0)
        float_acc = evaluate(result.model, xte, yte, mask=mask)
        q_acc = evaluate_quantized(result.model, xte, yte, mask, 16, 8)
        assert abs(float_acc - q_acc) < 0.12
