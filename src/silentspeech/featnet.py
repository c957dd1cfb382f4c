"""Supervised bottleneck feature extractor.

A windowed-frame phone classifier trained by minibatch SGD: two valid
(unpadded) convolution + ReLU + 2x2 max-pool (``_POOL``) stages, batch
normalization (``_BN_EPS``, ``_BN_MOMENTUM``) over the flattened map, four
fully-connected ReLU layers whose third (narrow) layer is exported as the
per-frame feature, and a softmax output layer. Forward, backward, and the
optimizer are plain numpy in double precision so gradients can be
finite-difference checked.

Each conv stage runs one sample at a time: the sample's k x k patches
are copied, in one copy from a sliding-window view, into a column buffer
of shape (c*k*k, oh*ow); one BLAS matmul (Chellapilla et al. 2006) and
the bias add fill a one-sample conv map, which is max-pooled straight
into the batch's pooled output. The column buffer and the conv map are
allocated once per layer call and reused for every sample, so only pooled
maps grow with the batch. The backward pass mirrors this: per sample, the
pooled gradient is scattered to that sample's conv-map gradient, which
feeds the bias and weight gradients and, for the second stage, the column
gradient that k*k slice-adds scatter back to the input (col2im). The first
layer's input gradient is never formed, since nothing consumes it.

Each stage max-pools the pre-activation map and applies ReLU to the
pooled batch, which is four times smaller; max-pooling commutes with the
monotone ReLU, so the result is the same as ReLU then pool. Pooling takes
four strided maxima without copying windows, and the argmax positions the
backward pass needs are found only in train mode, one byte each.

Checkpoints are read through one reused 1 MiB float32 block, so loading
holds no more than the float64 tensors it returns. Bottleneck extraction
windows the frames one chunk at a time.

Parameter tensors are values: no function here writes into the arrays of a
:class:`FeatNetParams` it is given, and only :func:`train_sgd` rebinds
them, in its own copy of the ``tensors`` dict, so its result may share
arrays with its input. :func:`gradient_check` perturbs a private copy.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import WINDOW_OFFSETS, window_stack
from .errors import DataError, NumericalError, UsageError, open_input

_CKPT_MAGIC = b"FNET"
_WINDOW_REACH = max(abs(o) for o in WINDOW_OFFSETS)  # frames a window spans past its anchor
_DECAY_ROWS = 512  # rows of a weight gradient per weight-decay block
_LOAD_BLOCK = 1 << 18  # float32 values per checkpoint read (1 MiB)
_ACCURACY_CHUNK = 512  # samples per forward pass when scoring accuracy
_POOL = 2  # max-pool window side and stride of both conv stages
_BN_EPS = 1e-5  # added to the batch-norm variance
_BN_MOMENTUM = 0.1  # weight of a train batch's moments in the running moments


@dataclass(frozen=True)
class FeatNetConfig:
    input_shape: tuple[int, int, int] = (7, 64, 128)  # channels, H, W
    conv_kernel: int = 10
    conv_filters: tuple[int, int] = (64, 128)
    fc_dims: tuple[int, int, int, int] = (1024, 512, 128, 512)
    n_classes: int = 49
    lr: float = 0.001
    batch_size: int = 256
    l2_weight: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        c, h, w = self.input_shape
        if min(c, h, w) < 1:
            raise UsageError(f"bad input shape {self.input_shape}")
        if len(self.fc_dims) != 4:
            raise UsageError("fc_dims must list the four hidden layer widths")
        if min(self.conv_kernel, *self.conv_filters, *self.fc_dims) < 1:
            raise UsageError(f"conv_kernel, conv_filters and fc_dims need sizes >= 1, got "
                             f"{self.conv_kernel}, {self.conv_filters}, {self.fc_dims}")
        if self.n_classes < 2:
            raise UsageError("need at least 2 classes")
        if self.batch_size < 1:
            raise UsageError(f"need batch_size >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < math.inf:
            raise UsageError(f"need a finite lr > 0, got {self.lr}")
        if not 0.0 <= self.l2_weight < math.inf:
            raise UsageError(f"need a finite l2_weight >= 0, got {self.l2_weight}")
        for name, (oh, ow) in self.stage_shapes().items():
            if oh < 1 or ow < 1:
                raise UsageError(
                    f"{name} output collapses to {oh}x{ow}; "
                    f"input {h}x{w} too small for kernel {self.conv_kernel}")

    @property
    def bottleneck_dim(self) -> int:
        return self.fc_dims[2]

    def stage_shapes(self) -> dict[str, tuple[int, int]]:
        _, h, w = self.input_shape
        k, p = self.conv_kernel, _POOL
        c1 = (h - k + 1, w - k + 1)
        p1 = (c1[0] // p, c1[1] // p)
        c2 = (p1[0] - k + 1, p1[1] - k + 1)
        p2 = (c2[0] // p, c2[1] // p)
        return {"conv1": c1, "pool1": p1, "conv2": c2, "pool2": p2}

    @property
    def flat_dim(self) -> int:
        p2 = self.stage_shapes()["pool2"]
        return self.conv_filters[1] * p2[0] * p2[1]


@dataclass
class FeatNetParams:
    """All learnable tensors plus batch-norm running moments.

    Functions never write into the tensors of a ``FeatNetParams`` they are
    given; only :func:`train_sgd` rebinds entries of ``tensors``, in its own
    copy. A caller that writes into a tensor in place changes every
    ``FeatNetParams`` that shares it, such as :func:`train_sgd`'s input and
    result.
    """

    config: FeatNetConfig
    tensors: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    #: serialization and gradient-check ordering
    TENSOR_NAMES = (
        "conv1_w", "conv1_b", "conv2_w", "conv2_b",
        "bn_gamma", "bn_beta", "bn_mean", "bn_var",
        "fc1_w", "fc1_b", "fc2_w", "fc2_b", "fc3_w", "fc3_b",
        "fc4_w", "fc4_b", "out_w", "out_b",
    )
    #: tensors entering the L2 penalty and SGD weight updates
    WEIGHT_NAMES = ("conv1_w", "conv2_w", "fc1_w", "fc2_w", "fc3_w", "fc4_w", "out_w")
    #: everything updated by gradient descent (running moments excluded)
    LEARNABLE_NAMES = tuple(n for n in TENSOR_NAMES if n not in ("bn_mean", "bn_var"))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def copy(self) -> "FeatNetParams":
        return FeatNetParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def param_shapes(config: FeatNetConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor, keyed and ordered as ``TENSOR_NAMES``."""
    c, _, _ = config.input_shape
    k = config.conv_kernel
    f1, f2 = config.conv_filters
    d = config.flat_dim
    shapes = {
        "conv1_w": (f1, c, k, k), "conv1_b": (f1,),
        "conv2_w": (f2, f1, k, k), "conv2_b": (f2,),
        "bn_gamma": (d,), "bn_beta": (d,), "bn_mean": (d,), "bn_var": (d,),
    }
    dims = [d, *config.fc_dims, config.n_classes]
    for name, din, dout in zip(("fc1", "fc2", "fc3", "fc4", "out"), dims[:-1], dims[1:]):
        shapes[f"{name}_w"] = (din, dout)
        shapes[f"{name}_b"] = (dout,)
    return shapes


def init_params(config: FeatNetConfig) -> FeatNetParams:
    """Fan-in-scaled zero-mean init, zero biases, unit batch-norm.

    Weights are drawn from ``config.seed`` in ``TENSOR_NAMES`` order
    (conv1, conv2, fc1-fc4, out), so a seed always yields the same tensors.
    """
    rng = np.random.default_rng(config.seed)
    t = {}
    for name, shape in param_shapes(config).items():
        if name in FeatNetParams.WEIGHT_NAMES:
            # conv fan-in is c*k*k; fc weights are (fan_in, fan_out)
            fan_in = math.prod(shape[1:]) if len(shape) == 4 else shape[0]
            # scaled in place: the same multiply, with no second copy of fc1_w
            t[name] = rng.standard_normal(shape)
            t[name] *= np.sqrt(2.0 / fan_in)
        elif name in ("bn_gamma", "bn_var"):
            t[name] = np.ones(shape)
        else:
            t[name] = np.zeros(shape)
    return FeatNetParams(config, t)


# ---------------------------------------------------------------------------
# Layers


def _cols(x_s: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """im2col of one sample x_s (c, h, w) into ``out`` (c*k*k, oh*ow).

    Row ``(ci*k + i)*k + j`` holds ``x_s[ci, i:i+oh, j:j+ow]`` flattened,
    matching ``w.reshape(f, -1)`` for w of shape (f, c, k, k). One copy
    from the (c, oh, ow, k, k) window view, reordered to (c, k, k, oh, ow).
    """
    c, h, w = x_s.shape
    np.copyto(out.reshape(c, k, k, h - k + 1, w - k + 1),
              sliding_window_view(x_s, (k, k), axis=(1, 2)).transpose(0, 3, 4, 1, 2))
    return out


def _conv_pool_forward(x, w, b, need_idx):
    """Valid convolution (cross-correlation) of x (n, c, h, w) with
    w (f, c, k, k) plus bias, then max-pool, one sample at a time.

    One im2col buffer and one one-sample conv map are reused across the
    batch, so only the pooled (n, f, oh // _POOL, ow // _POOL) output and,
    with ``need_idx``, its argmax indices grow with the batch.
    """
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    w2 = w.reshape(f, -1)
    cols = np.empty((c * k * k, oh * ow))
    conv = np.empty((f, oh * ow))
    out = np.empty((n, f, oh // _POOL, ow // _POOL))
    idx = np.empty(out.shape, dtype=np.uint8) if need_idx else None
    for s in range(n):
        np.matmul(w2, _cols(x[s], k, cols), out=conv)
        conv += b[:, None]  # while this sample's map is still in cache
        out[s], idx_s = _pool_forward(conv.reshape(f, oh, ow), need_idx)
        if need_idx:
            idx[s] = idx_s
    return out, idx


def _pool_conv_backward(x, w, dpool, idx, need_dx):
    """Gradients (dx, dw, db) of :func:`_conv_pool_forward`, given the
    gradient ``dpool`` of its pooled output.

    Per sample, the pool gradient forms that sample's conv-map gradient
    ``da``; db accumulates its sums and dw ``da @ cols.T``. For dx the
    column gradient ``w2.T @ da`` is written into the column buffer and
    scattered back with k*k slice-adds (col2im). With ``need_dx`` False,
    dx is skipped and returned as None.
    """
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    w2 = w.reshape(f, -1)
    cols = np.empty((c * k * k, oh * ow))
    view = cols.reshape(c, k, k, oh, ow)
    dw = np.zeros_like(w2)
    db = np.zeros(f)
    dx = np.zeros(x.shape) if need_dx else None
    for s in range(n):
        da = _pool_backward(dpool[s], idx[s], (f, oh, ow))
        db += da.sum(axis=(1, 2))
        da = da.reshape(f, oh * ow)
        dw += da @ _cols(x[s], k, cols).T
        if need_dx:
            np.matmul(w2.T, da, out=cols)
            for i in range(k):
                for j in range(k):
                    dx[s, :, i:i + oh, j:j + ow] += view[:, i, j]
    return dx, dw.reshape(w.shape), db


def _pool_forward(x, need_idx):
    """p x p max-pool (p = ``_POOL``) over the last two axes of x (..., h, w),
    dropping trailing rows and columns.

    The max is taken over the p*p strided views ``x[..., i::p, j::p]``, so
    no window copy is made. With ``need_idx``, also returns the first
    argmax within each window (row-major ``i*p + j``, uint8); otherwise None.
    """
    p = _POOL
    h, w = x.shape[-2:]
    oh, ow = h // p, w // p
    views = [x[..., i:oh * p:p, j:ow * p:p] for i in range(p) for j in range(p)]
    out = views[0].copy()
    for v in views[1:]:
        np.maximum(out, v, out=out)
    if not need_idx:
        return out, None
    idx = np.zeros(out.shape, dtype=np.uint8)
    # in reverse, so the first position holding the max is written last
    for q in range(p * p - 1, -1, -1):
        np.copyto(idx, q, where=views[q] == out)
    return out, idx


def _pool_backward(dout, idx, in_shape):
    """Gradient of :func:`_pool_forward`: each window's ``dout`` goes to its
    argmax position, zeros elsewhere and in the dropped rows and columns."""
    p = _POOL
    h, w = in_shape[-2:]
    oh, ow = h // p, w // p
    dx = np.zeros(in_shape)
    for i in range(p):
        for j in range(p):
            np.copyto(dx[..., i:oh * p:p, j:ow * p:p], dout, where=idx == i * p + j)
    return dx


def _bn_forward(x, gamma, beta, mean, var):
    xhat = (x - mean) / np.sqrt(var + _BN_EPS)
    return gamma * xhat + beta, xhat


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Forward / backward


def forward(params: FeatNetParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the classifier in inference mode on a batch ``x`` of shape
    (n, c, h, w); returns (logits, bottleneck). Batch norm uses the running
    moments, which stay unchanged.
    """
    logits, bneck, _ = _forward_full(params, x, train_mode=False)
    return logits, bneck


def _forward_full(params, x, train_mode):
    cfg = params.config
    t = params.tensors
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != cfg.input_shape:
        raise DataError(f"sample shape {x.shape[1:]} != config {cfg.input_shape}")
    cache: dict[str, np.ndarray] = {"x": x}

    # pool each sample's conv map, then ReLU in place on the pooled batch
    # (see the module docstring)
    p1, idx1 = _conv_pool_forward(x, t["conv1_w"], t["conv1_b"], train_mode)
    np.maximum(p1, 0.0, out=p1)
    p2, idx2 = _conv_pool_forward(p1, t["conv2_w"], t["conv2_b"], train_mode)
    np.maximum(p2, 0.0, out=p2)
    flat = p2.reshape(x.shape[0], -1)

    if train_mode:
        mu = flat.mean(axis=0)
        var = flat.var(axis=0)
    else:
        mu, var = t["bn_mean"], t["bn_var"]
    bn, xhat = _bn_forward(flat, t["bn_gamma"], t["bn_beta"], mu, var)

    cache.update(idx1=idx1, p1=p1, idx2=idx2, p2=p2, xhat=xhat,
                 bn_mean=mu, bn_var=var, bn=bn)
    h = bn
    acts = []
    for i, name in enumerate(("fc1", "fc2", "fc3", "fc4")):
        h = np.maximum(h @ t[f"{name}_w"] + t[f"{name}_b"], 0.0)
        acts.append(h)
    cache["acts"] = acts
    logits = acts[-1] @ t["out_w"] + t["out_b"]
    return logits, acts[2], cache


def _labels(y, n: int, n_classes: int, what: str) -> np.ndarray:
    """``y`` as int64 if it holds one integer label in [0, n_classes) for
    each of ``n`` samples; DataError naming ``what`` otherwise."""
    y = np.asarray(y)
    if y.shape != (n,):
        raise DataError(f"{what}: need one label per sample, got shape {y.shape} "
                        f"for {n} samples")
    if y.dtype.kind not in "iu":
        raise DataError(f"{what}: labels must be integers, got dtype {y.dtype}")
    bad = np.flatnonzero((y < 0) | (y >= n_classes))
    if bad.size:
        raise DataError(f"{what}: label {bad[0]} is {y[bad[0]]}, "
                        f"outside the {n_classes} classes 0..{n_classes - 1}")
    return y.astype(np.int64, copy=False)


def loss_and_grads(params: FeatNetParams, x: np.ndarray,
                   y: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy plus the L2 weight penalty, with gradients for
    every learnable tensor (train-mode batch normalization). ``grads`` also
    holds the batch moments under ``bn_mean`` and ``bn_var``, which are not
    gradients: :func:`train_sgd` blends them into the running moments.
    DataError unless ``y`` holds one class index per sample of ``x``."""
    cfg = params.config
    t = params.tensors
    y = _labels(y, len(x), cfg.n_classes, "y")
    logits, _, cache = _forward_full(params, x, train_mode=True)
    n = logits.shape[0]
    probs = _softmax(logits)
    ce = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
    l2 = 0.5 * cfg.l2_weight * sum(float(np.vdot(t[w], t[w]))
                                   for w in FeatNetParams.WEIGHT_NAMES)
    loss = ce + l2
    if not np.isfinite(loss):
        raise NumericalError("training loss diverged to a non-finite value")

    grads = {"bn_mean": cache["bn_mean"], "bn_var": cache["bn_var"]}
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    acts = cache["acts"]
    grads["out_w"] = acts[-1].T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dh = dlogits @ t["out_w"].T
    fc_inputs = [cache["bn"], acts[0], acts[1], acts[2]]
    for i in (3, 2, 1, 0):
        name = f"fc{i + 1}"
        dh = dh * (acts[i] > 0)
        grads[f"{name}_w"] = fc_inputs[i].T @ dh
        grads[f"{name}_b"] = dh.sum(axis=0)
        dh = dh @ t[f"{name}_w"].T

    xhat = cache["xhat"]
    grads["bn_gamma"] = (dh * xhat).sum(axis=0)
    grads["bn_beta"] = dh.sum(axis=0)
    inv_std = 1.0 / np.sqrt(cache["bn_var"] + _BN_EPS)
    dxhat = dh * t["bn_gamma"]
    dflat = inv_std * (dxhat - dxhat.mean(axis=0)
                       - xhat * (dxhat * xhat).mean(axis=0))

    # A window whose pooled max is not positive was zeroed by the ReLU and
    # passes no gradient; elsewhere the argmax of the pre-activation window
    # is the unit the ReLU let through.
    p1, p2 = cache["p1"], cache["p2"]
    dp2 = dflat.reshape(p2.shape) * (p2 > 0)
    dp1, dw2, db2 = _pool_conv_backward(p1, t["conv2_w"], dp2, cache["idx2"], need_dx=True)
    grads["conv2_w"], grads["conv2_b"] = dw2, db2
    dp1 *= p1 > 0
    _, dw1, db1 = _pool_conv_backward(cache["x"], t["conv1_w"], dp1, cache["idx1"],
                                      need_dx=False)
    grads["conv1_w"], grads["conv1_b"] = dw1, db1

    # weight decay in row blocks: no fc1-sized temporary for l2 * w
    for w in FeatNetParams.WEIGHT_NAMES:
        g, tw = grads[w], t[w]
        for lo in range(0, g.shape[0], _DECAY_ROWS):
            g[lo:lo + _DECAY_ROWS] += cfg.l2_weight * tw[lo:lo + _DECAY_ROWS]
    return loss, grads


# ---------------------------------------------------------------------------
# Training


def accuracy(params: FeatNetParams, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose most probable class is their label;
    DataError when ``x`` has no samples or ``y`` does not hold one class
    index per sample of ``x``."""
    if x.shape[0] == 0:
        raise DataError("accuracy of zero samples is undefined")
    y = _labels(y, x.shape[0], params.config.n_classes, "y")
    hits = 0
    for i in range(0, x.shape[0], _ACCURACY_CHUNK):
        logits, _ = forward(params, x[i:i + _ACCURACY_CHUNK])
        hits += int((logits.argmax(axis=1) == y[i:i + _ACCURACY_CHUNK]).sum())
    return hits / x.shape[0]


def train_sgd(params: FeatNetParams, train_x: np.ndarray, train_y: np.ndarray,
              val_x: np.ndarray, val_y: np.ndarray,
              epochs: int = 30) -> tuple[FeatNetParams, list[dict]]:
    """Minibatch SGD; returns the params of the epoch with the highest
    validation accuracy (earliest epoch on ties) and per-epoch metrics.

    The one function that changes parameters, by rebinding tensors in its
    own copy: ``params`` is left unchanged, and the result may share arrays
    with it. Each update is written into the step's gradient array, which
    then becomes the tensor, so no parameter set is ever copied. Both
    label sets are checked against their samples before the first step.
    """
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise DataError("train and validation sets must be nonempty")
    cfg = params.config
    if epochs < 1:
        raise UsageError(f"need epochs >= 1, got {epochs}")
    train_y = _labels(train_y, train_x.shape[0], cfg.n_classes, "train_y")
    val_y = _labels(val_y, val_x.shape[0], cfg.n_classes, "val_y")
    rng = np.random.default_rng(cfg.seed)
    params = FeatNetParams(cfg, dict(params.tensors))
    best_acc = -1.0
    best_epoch = 0
    metrics: list[dict] = []
    t = params.tensors
    for epoch in range(epochs):
        order = rng.permutation(train_x.shape[0])
        losses = []
        for lo in range(0, order.size, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            loss, grads = loss_and_grads(params, train_x[sel], train_y[sel])
            losses.append(loss)
            for name in FeatNetParams.LEARNABLE_NAMES:
                # p - lr * g into g's own buffer: no fc1-sized temporary
                g = grads[name]
                g *= cfg.lr
                np.subtract(t[name], g, out=g)
                t[name] = g
            for name in ("bn_mean", "bn_var"):
                t[name] = t[name] * (1.0 - _BN_MOMENTUM) + _BN_MOMENTUM * grads[name]
        val_acc = accuracy(params, val_x, val_y)
        metrics.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_acc": val_acc, "selected": False})
        if val_acc > best_acc:
            best_acc = val_acc
            best = FeatNetParams(cfg, dict(params.tensors))
            best_epoch = epoch
    metrics[best_epoch]["selected"] = True
    return best, metrics


def extract_bottleneck(params: FeatNetParams, frames: np.ndarray,
                       chunk: int = 256) -> np.ndarray:
    """One feature vector per frame: windowed samples through the trained
    network in inference mode.

    Frames are windowed one chunk of anchors at a time, from the frames
    that chunk's windows reach. Clamping happens only at the true ends of
    the sequence, so the windows are those of the whole sequence.

    Features are bit-reproducible only for a fixed ``chunk``: a GEMM over
    one row can round differently from the same row inside a many-row
    GEMM, so changing ``chunk`` may change the last bits.
    """
    if chunk < 1:
        raise UsageError(f"need chunk >= 1, got {chunk}")
    frames = np.asarray(frames)
    n = frames.shape[0]
    out = np.empty((n, params.config.bottleneck_dim))
    # an empty sequence still reaches window_stack, which rejects it
    for lo in range(0, max(n, 1), chunk):
        hi = min(n, lo + chunk)
        a, b = max(0, lo - _WINDOW_REACH), min(n, hi + _WINDOW_REACH)
        out[lo:hi] = forward(params, window_stack(frames[a:b])[lo - a:hi - a])[1]
    return out


def gradient_check(params: FeatNetParams, x: np.ndarray, y: np.ndarray,
                   epsilon: float = 1e-3, n_coords: int = 200,
                   seed: int = 0) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a random coordinate subset."""
    params = params.copy()
    _, grads = loss_and_grads(params, x, y)
    rng = np.random.default_rng(seed)
    sizes = [(n, params.tensors[n].size) for n in FeatNetParams.LEARNABLE_NAMES]
    total = sum(s for _, s in sizes)
    worst = 0.0
    for flat_idx in rng.choice(total, size=min(n_coords, total), replace=False):
        offset = int(flat_idx)
        for name, size in sizes:
            if offset < size:
                break
            offset -= size
        tensor = params.tensors[name]
        orig = tensor.flat[offset]
        tensor.flat[offset] = orig + epsilon
        lp, _ = loss_and_grads(params, x, y)
        tensor.flat[offset] = orig - epsilon
        lm, _ = loss_and_grads(params, x, y)
        tensor.flat[offset] = orig
        fd = (lp - lm) / (2 * epsilon)
        analytic = grads[name].flat[offset]
        err = abs(analytic - fd) / max(1e-6, abs(analytic) + abs(fd))
        worst = max(worst, float(err))
    return worst


# ---------------------------------------------------------------------------
# Checkpoint I/O


def save_params(params: FeatNetParams, path: str | Path) -> None:
    """Binary checkpoint: magic, length-prefixed config JSON, then raw f32
    tensors in declaration order."""
    cfg_json = json.dumps(asdict(params.config)).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(cfg_json)))
        fh.write(cfg_json)
        for name in FeatNetParams.TENSOR_NAMES:
            # written through the buffer protocol, with no bytes copy
            fh.write(params.tensors[name].astype("<f4", order="C"))


def load_params(path: str | Path) -> FeatNetParams:
    """Read a checkpoint written by :func:`save_params`.

    The float32 payload is streamed through one reused block of
    ``_LOAD_BLOCK`` values into the float64 tensors, so the file is never
    held whole in memory.
    """
    with open_input(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != _CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        if len(head) < 8:
            raise DataError(f"{path}: truncated checkpoint header")
        (n,) = struct.unpack("<I", head[4:8])
        if size < 8 + n:
            raise DataError(f"{path}: truncated checkpoint header")
        try:
            cfg_dict = json.loads(fh.read(n).decode())
            for key in ("input_shape", "conv_filters", "fc_dims"):
                cfg_dict[key] = tuple(cfg_dict[key])
            config = FeatNetConfig(**cfg_dict)
        except (ValueError, KeyError, TypeError) as exc:  # UsageError is a ValueError
            raise DataError(f"{path}: unreadable checkpoint config ({exc})") from exc
        shapes = param_shapes(config)
        expected = 8 + n + 4 * sum(math.prod(shape) for shape in shapes.values())
        if size != expected:
            raise DataError(f"{path}: {size} bytes, but its config needs {expected}; "
                            "truncated or trailing tensor data")
        block = np.empty(_LOAD_BLOCK, dtype="<f4")
        tensors = {}
        for name in FeatNetParams.TENSOR_NAMES:
            tensor = np.empty(shapes[name])
            flat = tensor.reshape(-1)
            for lo in range(0, flat.size, _LOAD_BLOCK):
                part = block[:min(_LOAD_BLOCK, flat.size - lo)]
                if fh.readinto(part) != part.nbytes:
                    raise DataError(f"{path}: checkpoint ended inside tensor {name}")
                flat[lo:lo + part.size] = part
            tensors[name] = tensor
    return FeatNetParams(config, tensors)
