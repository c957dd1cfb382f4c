import dataclasses
import functools
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from silentspeech import featnet
from silentspeech.corpus import window_stack
from silentspeech.errors import DataError, UsageError

TINY = featnet.FeatNetConfig(
    input_shape=(1, 8, 8), conv_kernel=2, conv_filters=(2, 3),
    fc_dims=(8, 6, 4, 6), n_classes=2, batch_size=8, l2_weight=0.01,
    lr=0.05, seed=0)

SMALL = featnet.FeatNetConfig(
    input_shape=(7, 16, 32), conv_kernel=5, conv_filters=(4, 6),
    fc_dims=(32, 16, 8, 16), n_classes=8, batch_size=32, l2_weight=0.001,
    lr=0.02, seed=1)


def reference_init_params(config, seed):
    """init_params with shapes and draw order written out by hand: the
    oracle that param_shapes-driven initialization matches bit for bit."""
    rng = np.random.default_rng(seed)
    c, _, _ = config.input_shape
    k = config.conv_kernel
    f1, f2 = config.conv_filters
    d = config.flat_dim
    dims = [d, *config.fc_dims, config.n_classes]

    def he(shape, fan_in):
        return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

    t = {
        "conv1_w": he((f1, c, k, k), c * k * k),
        "conv1_b": np.zeros(f1),
        "conv2_w": he((f2, f1, k, k), f1 * k * k),
        "conv2_b": np.zeros(f2),
        "bn_gamma": np.ones(d),
        "bn_beta": np.zeros(d),
        "bn_mean": np.zeros(d),
        "bn_var": np.ones(d),
    }
    for name, din, dout in zip(("fc1", "fc2", "fc3", "fc4", "out"), dims[:-1], dims[1:]):
        t[f"{name}_w"] = he((din, dout), din)
        t[f"{name}_b"] = np.zeros(dout)
    return t


def reference_patches(x, k):
    """All k x k patches of x as a strided view (n, c, oh, ow, k, k)."""
    n, c, h, w = x.shape
    sn, sc, sh, sw = x.strides
    return as_strided(x, (n, c, h - k + 1, w - k + 1, k, k),
                      (sn, sc, sh, sw, sh, sw), writeable=False)


def reference_conv_forward(x, w, b):
    pat = reference_patches(x, w.shape[-1])
    out = np.einsum("nchwij,fcij->nfhw", pat, w, optimize=True)
    return out + b[None, :, None, None]


def reference_conv_backward(x, w, dout):
    pat = reference_patches(x, w.shape[-1])
    dw = np.einsum("nchwij,nfhw->fcij", pat, dout, optimize=True)
    db = dout.sum(axis=(0, 2, 3))
    k = w.shape[-1]
    padded = np.pad(dout, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    dpat = reference_patches(padded, k)
    w_flip = w[:, :, ::-1, ::-1]
    dx = np.einsum("nfhwij,fcij->nchw", dpat, w_flip, optimize=True)
    return dx, dw, db


def reference_pool_forward(x, p):
    """Window-copy max-pool: argmax and take_along_axis over the p*p
    entries of each window, reordered into a trailing axis."""
    n, f, h, w = x.shape
    oh, ow = h // p, w // p
    x = x[:, :, :oh * p, :ow * p]
    windows = x.reshape(n, f, oh, p, ow, p).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, f, oh, ow, p * p)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return out, idx


def reference_pool_backward(dout, idx, in_shape, p):
    n, f, h, w = in_shape
    oh, ow = h // p, w // p
    dwin = np.zeros((n, f, oh, ow, p * p))
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    dx = np.zeros(in_shape)
    dx[:, :, :oh * p, :ow * p] = dwin.reshape(n, f, oh, ow, p, p).transpose(
        0, 1, 2, 4, 3, 5).reshape(n, f, oh * p, ow * p)
    return dx


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestConfig:
    def test_stage_shapes_full_scale(self):
        cfg = featnet.FeatNetConfig()
        shapes = cfg.stage_shapes()
        assert shapes["conv1"] == (55, 119)
        assert shapes["pool1"] == (27, 59)
        assert shapes["conv2"] == (18, 50)
        assert shapes["pool2"] == (9, 25)
        assert cfg.flat_dim == 128 * 9 * 25
        assert cfg.bottleneck_dim == 128

    def test_too_small_input_rejected(self):
        with pytest.raises(UsageError, match="collapses"):
            featnet.FeatNetConfig(input_shape=(7, 16, 32))


class TestInit:
    @pytest.mark.parametrize("cfg,seed", [(TINY, 0), (TINY, 3), (SMALL, 1)])
    def test_bit_identical_to_reference_draw_order(self, cfg, seed):
        params = featnet.init_params(dataclasses.replace(cfg, seed=seed))
        ref = reference_init_params(cfg, seed)
        assert featnet.param_shapes(cfg) == {n: a.shape for n, a in ref.items()}
        assert list(params.tensors) == list(featnet.FeatNetParams.TENSOR_NAMES)
        for name in featnet.FeatNetParams.TENSOR_NAMES:
            assert params[name].dtype == ref[name].dtype
            assert np.array_equal(params[name], ref[name]), name

    def test_same_seed_bitwise_identical(self):
        a = featnet.init_params(dataclasses.replace(TINY, seed=3))
        b = featnet.init_params(dataclasses.replace(TINY, seed=3))
        for name in featnet.FeatNetParams.TENSOR_NAMES:
            assert np.array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = featnet.init_params(dataclasses.replace(TINY, seed=3))
        b = featnet.init_params(dataclasses.replace(TINY, seed=4))
        assert not np.array_equal(a["conv1_w"], b["conv1_w"])

    def test_fan_in_scaling_moments(self):
        cfg = featnet.FeatNetConfig(
            input_shape=(7, 16, 32), conv_kernel=5, conv_filters=(4, 6),
            fc_dims=(512, 64, 4, 6), n_classes=2)
        params = featnet.init_params(dataclasses.replace(cfg, seed=5))
        w = params["fc1_w"]  # flat_dim x 256, > 1e4 entries
        assert w.size >= 10_000
        target = np.sqrt(2.0 / w.shape[0])
        assert abs(w.std() - target) / target < 0.2
        assert np.all(params["fc1_b"] == 0)


class TestForward:
    def test_zero_input_zero_bottleneck(self):
        params = featnet.init_params(TINY)
        x = np.zeros(TINY.input_shape)
        _, bneck = featnet.forward(params, x[None])
        assert np.allclose(bneck[0], 0.0)

    def test_softmax_sums_to_one(self):
        params = featnet.init_params(dataclasses.replace(TINY, seed=1))
        rng = np.random.default_rng(2)
        logits, _ = featnet.forward(params, rng.standard_normal((5, *TINY.input_shape)))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_matches_hand_rolled_reference(self):
        """Independent loop-based forward computation, inference mode."""
        params = featnet.init_params(dataclasses.replace(TINY, seed=6))
        rng = np.random.default_rng(7)
        # non-trivial running moments
        params.tensors["bn_mean"] = rng.standard_normal(TINY.flat_dim) * 0.1
        params.tensors["bn_var"] = rng.uniform(0.5, 2.0, TINY.flat_dim)
        x = rng.standard_normal(TINY.input_shape)
        logits, bneck = featnet.forward(params, x[None])

        def conv_ref(inp, w, b):
            f, c, k, _ = w.shape
            h = inp.shape[1] - k + 1
            ww = inp.shape[2] - k + 1
            out = np.zeros((f, h, ww))
            for fi in range(f):
                for i in range(h):
                    for j in range(ww):
                        out[fi, i, j] = np.sum(inp[:, i:i + k, j:j + k] * w[fi]) + b[fi]
            return out

        def pool_ref(inp, p):
            f, h, w = inp.shape
            out = np.zeros((f, h // p, w // p))
            for fi in range(f):
                for i in range(h // p):
                    for j in range(w // p):
                        out[fi, i, j] = inp[fi, i * p:(i + 1) * p, j * p:(j + 1) * p].max()
            return out

        t = params.tensors
        h1 = pool_ref(np.maximum(conv_ref(x, t["conv1_w"], t["conv1_b"]), 0), 2)
        h2 = pool_ref(np.maximum(conv_ref(h1, t["conv2_w"], t["conv2_b"]), 0), 2)
        flat = h2.reshape(-1)
        bn = t["bn_gamma"] * (flat - t["bn_mean"]) / np.sqrt(t["bn_var"] + featnet._BN_EPS) \
            + t["bn_beta"]
        h = bn
        for name in ("fc1", "fc2", "fc3", "fc4"):
            h = np.maximum(h @ t[f"{name}_w"] + t[f"{name}_b"], 0)
            if name == "fc3":
                ref_bneck = h.copy()
        ref_logits = h @ t["out_w"] + t["out_b"]
        assert np.max(np.abs(logits[0] - ref_logits)) < 1e-6
        assert np.max(np.abs(bneck[0] - ref_bneck)) < 1e-6

    def test_bn_inference_is_affine(self):
        params = featnet.init_params(dataclasses.replace(TINY, seed=8))
        rng = np.random.default_rng(9)
        params.tensors["bn_mean"] = rng.standard_normal(TINY.flat_dim)
        params.tensors["bn_var"] = rng.uniform(0.5, 2.0, TINY.flat_dim)
        u = rng.standard_normal(TINY.flat_dim)
        v = rng.standard_normal(TINY.flat_dim)

        def bn(z):
            out, _ = featnet._bn_forward(z, params["bn_gamma"], params["bn_beta"],
                                         params["bn_mean"], params["bn_var"])
            return out

        lhs = bn(0.3 * u + 0.7 * v)
        rhs = 0.3 * bn(u) + 0.7 * bn(v)  # affine: weights sum to 1
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        params = featnet.init_params(TINY)
        with pytest.raises(DataError):
            featnet.forward(params, np.zeros((1, 9, 9)))


class TestConvolution:
    """Per-sample im2col + matmul + pool layers against the strided-view
    einsum convolution followed by the window-copy pooling reference."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("c", [1, 3, 7])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_einsum_reference(self, n, c, k):
        rng = np.random.default_rng(100 * n + 10 * c + k)
        x = rng.standard_normal((n, c, k + 6, k + 11))  # non-square, odd conv rows
        w = rng.standard_normal((4, c, k, k))
        b = rng.standard_normal(4)
        out, idx = featnet._conv_pool_forward(x, w, b, need_idx=True)
        conv = reference_conv_forward(x, w, b)
        ref_out, ref_idx = reference_pool_forward(conv, 2)
        assert out.shape == ref_out.shape
        assert rel_err(out, ref_out) < 1e-12
        assert np.array_equal(idx, ref_idx)
        dpool = rng.standard_normal(out.shape)
        dx, dw, db = featnet._pool_conv_backward(x, w, dpool, idx, need_dx=True)
        dconv = reference_pool_backward(dpool, ref_idx, conv.shape, 2)
        ref_dx, ref_dw, ref_db = reference_conv_backward(x, w, dconv)
        for got, want in ((dx, ref_dx), (dw, ref_dw), (db, ref_db)):
            assert got.shape == want.shape
            assert rel_err(got, want) < 1e-12
        out_only, no_idx = featnet._conv_pool_forward(x, w, b, need_idx=False)
        assert no_idx is None
        assert np.array_equal(out_only, out)

    def test_skipped_input_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 7, 9, 13))
        w = rng.standard_normal((5, 7, 3, 3))
        _, idx = featnet._conv_pool_forward(x, w, np.zeros(5), need_idx=True)
        dpool = rng.standard_normal(idx.shape)
        _, dw, db = featnet._pool_conv_backward(x, w, dpool, idx, need_dx=True)
        dx, dw_skip, db_skip = featnet._pool_conv_backward(x, w, dpool, idx, need_dx=False)
        assert dx is None
        assert np.array_equal(dw, dw_skip)
        assert np.array_equal(db, db_skip)


class TestPooling:
    """Strided-maxima pooling against the window-copy argmax reference, at
    the module's pool size and, with ``_POOL`` set to 3, at an odd one."""

    @staticmethod
    def pool_input(kind, shape, rng):
        if kind == "normal":
            return rng.standard_normal(shape)
        if kind == "negative":
            return -np.abs(rng.standard_normal(shape)) - 0.1
        if kind == "ties":  # many tied maxima, some all-equal windows
            return rng.integers(-1, 2, shape).astype(np.float64)
        return np.full(shape, -0.5)  # every window all-equal

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("shape", [(2, 3, 7, 9), (1, 2, 9, 10), (3, 1, 11, 8)])
    @pytest.mark.parametrize("kind", ["normal", "negative", "ties", "constant"])
    def test_matches_argmax_reference(self, p, shape, kind, monkeypatch):
        monkeypatch.setattr(featnet, "_POOL", p)
        rng = np.random.default_rng(p * 1000 + shape[2] * 10 + shape[3])
        x = self.pool_input(kind, shape, rng)
        out, idx = featnet._pool_forward(x, need_idx=True)
        ref_out, ref_idx = reference_pool_forward(x, p)
        assert out.shape == ref_out.shape == (shape[0], shape[1], shape[2] // p, shape[3] // p)
        assert np.array_equal(out, ref_out)
        assert idx.dtype == np.uint8
        assert np.array_equal(idx, ref_idx)
        dout = rng.standard_normal(out.shape)
        dx = featnet._pool_backward(dout, idx, x.shape)
        assert np.array_equal(dx, reference_pool_backward(dout, ref_idx, x.shape, p))
        out_only, no_idx = featnet._pool_forward(x, need_idx=False)
        assert no_idx is None
        assert np.array_equal(out_only, out)


def traced_peak(fn, *args):
    """Peak bytes allocated while ``fn(*args)`` runs, under tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="class")
def paper_params():
    return featnet.init_params(featnet.FeatNetConfig())


@pytest.fixture(scope="class")
def paper_peak(paper_params):
    """``paper_peak(name, n)``: traced peak of one paper-shape ``forward``
    or ``loss_and_grads`` call at batch n, measured once per class."""
    cfg = paper_params.config
    rng = np.random.default_rng(0)
    x = rng.standard_normal((24, *cfg.input_shape))
    y = rng.integers(0, cfg.n_classes, 24)
    calls = {"forward": lambda n: featnet.forward(paper_params, x[:n]),
             "step": lambda n: featnet.loss_and_grads(paper_params, x[:n], y[:n])}
    return functools.cache(lambda name, n: traced_peak(calls[name], n))


class TestMemory:
    def test_paper_shape_step_peak_allocation(self, paper_peak):
        """One paper-shape training step at batch 2 stays below 700 MiB of
        allocations: column buffers hold one sample and conv1's input
        gradient is never formed."""
        assert paper_peak("step", 2) < 700 * 2 ** 20

    def test_paper_shape_inference_peak_allocation(self, paper_peak):
        """Paper-shape inference at batch 8 stays below 90 MiB of
        allocations: each sample's conv map is pooled without window
        copies or argmax indices, and no batch-sized conv map is held."""
        assert paper_peak("forward", 8) < 90 * 2 ** 20

    def test_inference_growth_per_sample(self, paper_peak):
        """Each added sample costs paper-shape inference less than 1.6 MiB
        (3.2 MiB with batch-sized conv maps): only pooled maps grow with
        the batch."""
        growth = (paper_peak("forward", 24) - paper_peak("forward", 8)) / 16
        assert growth < 1.6 * 2 ** 20

    def test_step_growth_per_sample(self, paper_peak):
        """Each added sample costs a paper-shape training step less than
        5.5 MiB (6.8 MiB with batch-sized conv maps and their gradients)."""
        growth = (paper_peak("step", 8) - paper_peak("step", 2)) / 6
        assert growth < 5.5 * 2 ** 20

    def test_load_streams_checkpoint(self, paper_params, tmp_path):
        """Loading a paper-shape checkpoint allocates little beyond the
        float64 tensors themselves: the float32 file is never held whole
        (1.5 parameter sets when it was)."""
        featnet.save_params(paper_params, tmp_path / "net.ckpt")
        param_bytes = sum(a.nbytes for a in paper_params.tensors.values())
        assert traced_peak(featnet.load_params, tmp_path / "net.ckpt") < 1.1 * param_bytes

    def test_paper_shape_training_peak_allocation(self):
        """Paper-shape train_sgd over 2 epochs of 2 steps stays below 3.5
        parameter sets of allocations: the caller's parameters are never
        copied, each update is written into its gradient buffer, and the
        best epoch is kept without a copy."""
        cfg = featnet.FeatNetConfig(batch_size=2)
        params = featnet.init_params(cfg)
        param_bytes = sum(a.nbytes for a in params.tensors.values())
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, *cfg.input_shape))
        y = rng.integers(0, cfg.n_classes, 6)
        tracemalloc.start()
        try:
            featnet.train_sgd(params, x[:4], y[:4], x[4:], y[4:], epochs=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * param_bytes


class TestRunningMoments:
    @staticmethod
    def moments_setup():
        """TINY params with non-trivial running moments, and one batch."""
        params = featnet.init_params(dataclasses.replace(TINY, seed=4))
        rng = np.random.default_rng(22)
        params.tensors["bn_mean"] = rng.standard_normal(TINY.flat_dim)
        params.tensors["bn_var"] = rng.uniform(0.5, 2.0, TINY.flat_dim)
        x = rng.standard_normal((5, *TINY.input_shape))
        y = rng.integers(0, TINY.n_classes, 5)
        return params, x, y

    def test_loss_and_grads_changes_nothing(self):
        """loss_and_grads leaves every tensor bound to the same array, with
        the same values, and returns the batch moments beside the
        gradients."""
        params, x, y = self.moments_setup()
        arrays = dict(params.tensors)
        before = {n: a.copy() for n, a in arrays.items()}
        _, grads = featnet.loss_and_grads(params, x, y)
        assert params.tensors.keys() == arrays.keys()
        for name, a in arrays.items():
            assert params.tensors[name] is a, name
            assert np.array_equal(a, before[name]), name
        _, _, cache = featnet._forward_full(params, x, train_mode=True)
        flat = cache["p2"].reshape(x.shape[0], -1)
        assert np.array_equal(grads["bn_mean"], flat.mean(axis=0))
        assert np.array_equal(grads["bn_var"], flat.var(axis=0))

    def test_update_rebinds_without_writing(self):
        """One train_sgd step rebinds bn_mean/bn_var to the momentum blend
        of the moments loss_and_grads returns and leaves the caller's
        arrays as they were."""
        params, x, y = self.moments_setup()
        cfg = dataclasses.replace(params.config, batch_size=x.shape[0])
        params = featnet.FeatNetParams(cfg, params.tensors)
        kept_mean, kept_var = params["bn_mean"].copy(), params["bn_var"].copy()
        # the one batch of the epoch: every sample, in train_sgd's shuffle order
        order = np.random.default_rng(cfg.seed).permutation(x.shape[0])
        _, grads = featnet.loss_and_grads(params, x[order], y[order])
        best, _ = featnet.train_sgd(params, x, y, x, y, epochs=1)
        assert np.array_equal(params["bn_mean"], kept_mean)
        assert np.array_equal(params["bn_var"], kept_var)
        m = featnet._BN_MOMENTUM
        assert np.array_equal(best["bn_mean"], kept_mean * (1.0 - m) + m * grads["bn_mean"])
        assert np.array_equal(best["bn_var"], kept_var * (1.0 - m) + m * grads["bn_var"])
        assert not np.array_equal(best["bn_mean"], kept_mean)


def toy_dataset(cfg, n_per_class, rng, gap=1.0):
    """Linearly separable: class k has channel intensities around k * gap."""
    xs, ys = [], []
    for k in range(cfg.n_classes):
        base = (k - (cfg.n_classes - 1) / 2) * gap
        x = base + 0.1 * rng.standard_normal((n_per_class, *cfg.input_shape))
        xs.append(x)
        ys.append(np.full(n_per_class, k))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(x.shape[0])
    return x[order], y[order]


def reference_train_sgd(params, train_x, train_y, val_x, val_y, epochs):
    """train_sgd as it was before parameters became values: one deep copy
    on entry, in-place updates and a deep copy per improving epoch. The
    oracle that the copy-free train_sgd matches bit for bit."""
    cfg = params.config
    rng = np.random.default_rng(cfg.seed)
    params = params.copy()
    best_acc = -1.0
    best_epoch = 0
    metrics = []
    for epoch in range(epochs):
        order = rng.permutation(train_x.shape[0])
        losses = []
        for lo in range(0, order.size, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            loss, grads = featnet.loss_and_grads(params, train_x[sel], train_y[sel])
            losses.append(loss)
            for name in featnet.FeatNetParams.LEARNABLE_NAMES:
                grads[name] *= cfg.lr
                params.tensors[name] -= grads[name]
            m = featnet._BN_MOMENTUM
            for name in ("bn_mean", "bn_var"):
                params.tensors[name] *= 1.0 - m
                params.tensors[name] += m * grads[name]
        val_acc = featnet.accuracy(params, val_x, val_y)
        metrics.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_acc": val_acc, "selected": False})
        if val_acc > best_acc:
            best_acc = val_acc
            best = params.copy()
            best_epoch = epoch
    metrics[best_epoch]["selected"] = True
    return best, metrics


class TestTraining:
    def test_separable_data_high_accuracy(self):
        rng = np.random.default_rng(10)
        x, y = toy_dataset(TINY, 40, rng)
        params = featnet.init_params(TINY)
        best, metrics = featnet.train_sgd(params, x[:60], y[:60], x[60:], y[60:])
        assert max(m["val_acc"] for m in metrics) >= 0.95
        assert featnet.accuracy(best, x[60:], y[60:]) >= 0.95

    def test_caller_tensors_unchanged(self):
        rng = np.random.default_rng(11)
        x, y = toy_dataset(TINY, 10, rng)
        params = featnet.init_params(dataclasses.replace(TINY, seed=1))
        arrays = dict(params.tensors)
        before = {n: a.copy() for n, a in arrays.items()}
        best, _ = featnet.train_sgd(params, x, y, x, y, epochs=3)
        assert not np.array_equal(best["fc1_w"], before["fc1_w"])
        assert not np.array_equal(best["bn_mean"], before["bn_mean"])
        for name in featnet.FeatNetParams.TENSOR_NAMES:
            assert params.tensors[name] is arrays[name], name
            assert np.array_equal(arrays[name], before[name]), name

    def test_matches_copying_reference(self):
        """Bit-identical to the deep-copying train_sgd, on a run whose
        selected epoch is not the last, so a snapshot that later updates
        reach would differ."""
        cfg = dataclasses.replace(TINY, batch_size=4)
        rng = np.random.default_rng(12)
        x, y = toy_dataset(cfg, 10, rng)
        params = featnet.init_params(dataclasses.replace(cfg, seed=2))
        best, metrics = featnet.train_sgd(params, x[:12], y[:12], x[12:], y[12:],
                                          epochs=6)
        ref_best, ref_metrics = reference_train_sgd(
            params, x[:12], y[:12], x[12:], y[12:], epochs=6)
        assert metrics == ref_metrics
        assert not metrics[-1]["selected"]
        for name in featnet.FeatNetParams.TENSOR_NAMES:
            assert np.array_equal(best[name], ref_best[name]), name

    def test_selected_epoch_is_argmax(self):
        rng = np.random.default_rng(12)
        x, y = toy_dataset(TINY, 20, rng)
        params = featnet.init_params(dataclasses.replace(TINY, seed=2))
        _, metrics = featnet.train_sgd(params, x[:30], y[:30], x[30:], y[30:],
                                       epochs=8)
        accs = [m["val_acc"] for m in metrics]
        assert metrics[int(np.argmax(accs))]["selected"]

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_epochs_rejected(self, epochs):
        rng = np.random.default_rng(14)
        x, y = toy_dataset(TINY, 4, rng)
        params = featnet.init_params(TINY)
        with pytest.raises(ValueError, match="epochs"):
            featnet.train_sgd(params, x, y, x, y, epochs=epochs)

    def test_full_batch_loss_nonincreasing_small_lr(self):
        import dataclasses
        cfg = dataclasses.replace(TINY, lr=1e-4, batch_size=64, l2_weight=0.01)
        rng = np.random.default_rng(13)
        x, y = toy_dataset(cfg, 25, rng)
        x, y = x[:50], y[:50]
        params = featnet.init_params(dataclasses.replace(cfg, seed=3))
        losses = []
        for _ in range(50):
            loss, grads = featnet.loss_and_grads(params, x, y)
            losses.append(loss)
            for name in featnet.FeatNetParams.LEARNABLE_NAMES:
                params.tensors[name] -= cfg.lr * grads[name]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9


class TestLabels:
    @pytest.mark.parametrize("labels, why", [
        pytest.param([0, 1, -1, 0], "y: label 2 is -1, outside the 2 classes 0..1",
                     id="negative"),
        pytest.param([0, 2, 1, 5], "y: label 1 is 2, outside the 2 classes 0..1",
                     id="n_classes"),
        pytest.param([0, 1, 1], r"y: need one label per sample, got shape \(3,\) for 4",
                     id="short"),
        pytest.param([[0, 1, 1, 0]], r"y: need one label per sample, got shape \(1, 4\)",
                     id="2-d"),
        pytest.param([0.0, 1.0, 1.0, 0.0], "y: labels must be integers, got dtype float64",
                     id="float"),
    ])
    @pytest.mark.parametrize("fn", [featnet.loss_and_grads, featnet.accuracy],
                             ids=["loss_and_grads", "accuracy"])
    def test_bad_labels_rejected(self, fn, labels, why):
        """A label outside the classes, a label count other than the sample
        count, or a non-integer label raises DataError naming it, rather
        than training toward the wrong class, broadcasting one label or
        raising IndexError."""
        x = np.random.default_rng(15).standard_normal((4, *TINY.input_shape))
        with pytest.raises(DataError, match=why):
            fn(featnet.init_params(TINY), x, labels)

    def test_accuracy_of_no_samples_rejected(self):
        x = np.zeros((0, *TINY.input_shape))
        with pytest.raises(DataError, match="zero samples"):
            featnet.accuracy(featnet.init_params(TINY), x, np.zeros(0, dtype=int))

    @pytest.mark.parametrize("which", ["train_y", "val_y"])
    def test_train_sgd_checks_label_counts_first(self, which, monkeypatch):
        """A label set one shorter than its samples is rejected before the
        first step, not after an epoch of training."""
        rng = np.random.default_rng(16)
        x, y = toy_dataset(TINY, 4, rng)
        labels = {"train_y": y, "val_y": y}
        labels[which] = y[:-1]

        def no_step(*args):
            raise AssertionError("train_sgd took a step")

        monkeypatch.setattr(featnet, "loss_and_grads", no_step)
        with pytest.raises(DataError, match=f"{which}: need one label per sample"):
            featnet.train_sgd(featnet.init_params(TINY), x, labels["train_y"],
                              x, labels["val_y"], epochs=1)


class TestBottleneck:
    def test_shape_contract(self):
        params = featnet.init_params(dataclasses.replace(SMALL, seed=4))
        frames = np.random.default_rng(14).random((11, 16, 32))
        feats = featnet.extract_bottleneck(params, frames)
        assert feats.shape == (11, SMALL.bottleneck_dim)
        assert np.all(np.isfinite(feats))

    def test_deterministic_extraction(self):
        params = featnet.init_params(dataclasses.replace(SMALL, seed=5))
        frames = np.random.default_rng(15).random((9, 16, 32))
        a = featnet.extract_bottleneck(params, frames)
        b = featnet.extract_bottleneck(params, frames)
        assert np.array_equal(a, b)

    def test_constant_sequence_single_vector(self):
        params = featnet.init_params(dataclasses.replace(SMALL, seed=6))
        frames = np.full((5, 16, 32), 0.7)
        feats = featnet.extract_bottleneck(params, frames)
        for i in range(1, 5):
            assert np.allclose(feats[i], feats[0])

    @pytest.mark.parametrize("n_frames", [30, 7])  # 7 is shorter than a window's reach
    @pytest.mark.parametrize("chunk", [1, 5, 13, 40])
    def test_chunked_windows_match_whole_sequence(self, n_frames, chunk):
        """Windowing one chunk of anchors at a time gives the same windows,
        and so the same features, as windowing the whole sequence. The
        reference runs the same chunks, since a one-row matmul may round
        differently from a many-row one."""
        params = featnet.init_params(dataclasses.replace(SMALL, seed=8))
        frames = np.random.default_rng(17).random((n_frames, 16, 32))
        x = window_stack(frames)
        whole = np.concatenate([featnet.forward(params, x[i:i + chunk])[1]
                                for i in range(0, n_frames, chunk)])
        assert np.array_equal(featnet.extract_bottleneck(params, frames, chunk=chunk), whole)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_no_chunk_rejected(self, chunk):
        """A chunk below 1 is rejected by name; left to range(), 0 raises a
        bare error and -1 returns the output array uninitialised."""
        params = featnet.init_params(dataclasses.replace(SMALL, seed=8))
        with pytest.raises(ValueError, match="chunk"):
            featnet.extract_bottleneck(params, np.zeros((5, 16, 32)), chunk=chunk)

    def test_empty_sequence_rejected(self):
        params = featnet.init_params(dataclasses.replace(SMALL, seed=8))
        with pytest.raises(DataError, match="empty"):
            featnet.extract_bottleneck(params, np.zeros((0, 16, 32)))

    def test_batch_composition_invariance(self):
        params = featnet.init_params(dataclasses.replace(SMALL, seed=7))
        rng = np.random.default_rng(16)
        frames = rng.random((20, 16, 32))
        full = featnet.extract_bottleneck(params, frames, chunk=20)
        chunked = featnet.extract_bottleneck(params, frames, chunk=3)
        assert np.allclose(full, chunked, atol=1e-12)


class TestGradientCheck:
    def test_correct_backprop_passes(self):
        # batch of 16 keeps batch-norm curvature mild so the central
        # difference at eps=1e-3 stays in its quadratic regime
        params = featnet.init_params(dataclasses.replace(TINY, seed=8))
        rng = np.random.default_rng(21)
        x = rng.standard_normal((16, *TINY.input_shape))
        y = rng.integers(0, TINY.n_classes, 16)
        err = featnet.gradient_check(params, x, y, epsilon=1e-3, n_coords=300, seed=0)
        assert err < 1e-4

    def test_perturbed_gradient_fails(self):
        params = featnet.init_params(dataclasses.replace(TINY, seed=9))
        rng = np.random.default_rng(18)
        x = 0.5 * rng.standard_normal((4, *TINY.input_shape))
        y = rng.integers(0, TINY.n_classes, 4)

        orig = featnet.loss_and_grads

        def tampered(p, xx, yy):
            loss, grads = orig(p, xx, yy)
            grads["fc2_w"] = grads["fc2_w"] * 1.01
            return loss, grads

        featnet.loss_and_grads = tampered
        try:
            err = featnet.gradient_check(params, x, y, epsilon=1e-3,
                                         n_coords=2000, seed=0)
        finally:
            featnet.loss_and_grads = orig
        assert err > 1e-4

    def test_loss_deterministic_at_same_point(self):
        params = featnet.init_params(dataclasses.replace(TINY, seed=10))
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, *TINY.input_shape))
        y = rng.integers(0, 2, 3)
        l1, _ = featnet.loss_and_grads(params, x, y)
        l2, _ = featnet.loss_and_grads(params, x, y)
        assert l1 == l2


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = featnet.init_params(dataclasses.replace(SMALL, seed=11))
        featnet.save_params(params, tmp_path / "net.ckpt")
        back = featnet.load_params(tmp_path / "net.ckpt")
        assert back.config == params.config
        for name in featnet.FeatNetParams.TENSOR_NAMES:
            assert np.allclose(back[name], params[name], atol=1e-6)

    @pytest.mark.parametrize("block", [7, 1 << 18])
    def test_load_exact_across_read_blocks(self, tmp_path, monkeypatch, block):
        """Each tensor is its saved float32 values, exactly, whether a read
        block splits tensors at odd offsets or holds several whole."""
        params = featnet.init_params(dataclasses.replace(SMALL, seed=11))
        featnet.save_params(params, tmp_path / "net.ckpt")
        monkeypatch.setattr(featnet, "_LOAD_BLOCK", block)
        back = featnet.load_params(tmp_path / "net.ckpt")
        for name in featnet.FeatNetParams.TENSOR_NAMES:
            assert back[name].dtype == np.float64
            assert np.array_equal(back[name], params[name].astype(np.float32)), name

    def test_checkpoint_drives_identical_inference(self, tmp_path):
        params = featnet.init_params(dataclasses.replace(SMALL, seed=12))
        featnet.save_params(params, tmp_path / "net.ckpt")
        back = featnet.load_params(tmp_path / "net.ckpt")
        frames = np.random.default_rng(20).random((6, 16, 32)).astype(np.float32)
        a = featnet.extract_bottleneck(params, frames)
        b = featnet.extract_bottleneck(back, frames)
        assert np.max(np.abs(a - b)) < 1e-4

    def test_file_layout(self, tmp_path):
        """Magic, config length and JSON, then each tensor as C-order
        little-endian float32, whatever the tensor's memory layout."""
        params = featnet.init_params(dataclasses.replace(TINY, seed=2))
        params.tensors["fc1_w"] = np.asfortranarray(params["fc1_w"])
        featnet.save_params(params, tmp_path / "net.ckpt")
        cfg_json = json.dumps(dataclasses.asdict(params.config)).encode()
        expected = (b"FNET" + len(cfg_json).to_bytes(4, "little") + cfg_json
                    + b"".join(params[name].astype("<f4").tobytes()
                               for name in featnet.FeatNetParams.TENSOR_NAMES))
        assert (tmp_path / "net.ckpt").read_bytes() == expected

    @pytest.mark.parametrize("cut", ["magic_only", "mid_config", "bad_config",
                                     "no_tensors", "mid_tensors", "trailing"])
    def test_damaged_checkpoint_rejected(self, tmp_path, cut):
        featnet.save_params(featnet.init_params(TINY), tmp_path / "net.ckpt")
        raw = (tmp_path / "net.ckpt").read_bytes()
        header = 8 + int.from_bytes(raw[4:8], "little")
        payload = 4 * sum(math.prod(s) for s in featnet.param_shapes(TINY).values())
        assert len(raw) == header + payload
        data = {"magic_only": raw[:4], "mid_config": raw[:header - 5],
                "bad_config": raw[:8] + b"x" * (header - 8) + raw[header:],
                "no_tensors": raw[:header], "mid_tensors": raw[:header + payload // 2],
                "trailing": raw + b"\0\0\0\0"}[cut]
        path = tmp_path / "cut.ckpt"
        path.write_bytes(data)
        with pytest.raises(DataError, match="cut.ckpt"):
            featnet.load_params(path)

    def test_collapsing_config_names_file(self, tmp_path):
        """A stored config that FeatNetConfig rejects is bad data in that
        file: DataError naming it, with the UsageError as its cause."""
        featnet.save_params(featnet.init_params(TINY), tmp_path / "net.ckpt")
        raw = (tmp_path / "net.ckpt").read_bytes()
        header = 8 + int.from_bytes(raw[4:8], "little")
        cfg_json = json.dumps({**json.loads(raw[8:header]), "conv_kernel": 9}).encode()
        (tmp_path / "small.ckpt").write_bytes(
            b"FNET" + len(cfg_json).to_bytes(4, "little") + cfg_json + raw[header:])
        with pytest.raises(DataError, match="small.ckpt: .*conv1 output collapses") as info:
            featnet.load_params(tmp_path / "small.ckpt")
        assert type(info.value.__cause__) is UsageError

    def test_unknown_config_key_rejected(self, tmp_path):
        featnet.save_params(featnet.init_params(TINY), tmp_path / "net.ckpt")
        raw = (tmp_path / "net.ckpt").read_bytes()
        header = 8 + int.from_bytes(raw[4:8], "little")
        cfg_json = json.dumps({**json.loads(raw[8:header]), "dropout": 0.5}).encode()
        (tmp_path / "odd.ckpt").write_bytes(
            b"FNET" + len(cfg_json).to_bytes(4, "little") + cfg_json + raw[header:])
        with pytest.raises(DataError, match="odd.ckpt.*'dropout'"):
            featnet.load_params(tmp_path / "odd.ckpt")

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        """A file that ends before the size it reported raises DataError
        naming the file and the tensor it was reading."""
        featnet.save_params(featnet.init_params(TINY), tmp_path / "net.ckpt")
        raw = (tmp_path / "net.ckpt").read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-4])
        monkeypatch.setattr(featnet.os, "fstat", lambda fd: types.SimpleNamespace(st_size=len(raw)))
        with pytest.raises(DataError, match="cut.ckpt: checkpoint ended inside tensor out_b"):
            featnet.load_params(tmp_path / "cut.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"JUNKxxxx")
        with pytest.raises(DataError):
            featnet.load_params(tmp_path / "junk.ckpt")
