"""Supervised bottleneck feature extractor.

A windowed-frame phone classifier trained by minibatch SGD: two valid
(unpadded) convolution + ReLU + 2x2 max-pool (``_POOL``) stages, batch
normalization (``_BN_EPS``, ``_BN_MOMENTUM``) over the flattened map, four
fully-connected ReLU layers whose third (narrow) layer is exported as the
per-frame feature, and a softmax output layer. Forward, backward, and the
optimizer are plain numpy in double precision so gradients can be
finite-difference checked.

A conv stage runs by im2col (Chellapilla et al. 2006), one sample at a
time, lowered to pooling windows: the k x k kernels, zero-padded to
(k+1) x (k+1) at each of a 2 x 2 window's four offsets, are stacked into
one matrix of 4*f rows, and a column is the (k+1) x (k+1) input patch
under one pooled output, taken at stride 2. One BLAS matmul then gives
each window's four conv outputs as four contiguous row blocks, and
pooling is their elementwise maximum. Only the part of the map that
pooling reads is computed, one GEMM per sample. At paper shape conv1's
columns are 847 x 1 593 (10.8 MB, against 35.7 MB for the whole map's
700 x 6 372) and its kernel matrix has 256 rows: 21% more FLOPs in a
GEMM that runs faster for its rows. The buffers and the stacked kernels
are built once per layer call, so only pooled maps grow with the batch.
The backward pass runs the same stage:
the argmax bytes route the pooled gradient into the four row blocks,
whose product with the columns is the stacked kernels' gradient, folded
back over the offsets; for the second stage the column gradient is
scattered back to the input at stride 2 (col2im). The first layer's
input gradient is never formed, since nothing consumes it.

Conv2 runs through real FFTs instead, in both directions (Mathieu, Henaff
& LeCun 2014), when its im2col column holds at least ``_FFT_MIN_TAPS``
taps (c*k*k), at every sample count: per frequency bin, stacked matmuls
of input, kernel and gradient spectra. Kernel spectra are built from the
taps, and weight gradients read back to the taps, by DFT-matrix products
in blocks of ``_FFT_FILTERS`` filters, so a layer's spectra are never
held whole. The forward pass takes the input spectra of ``_FFT_SAMPLES``
samples at a time and runs filter blocks outer and sample blocks inner,
so each kernel spectrum is built once per block of ``_FFT_SAMPLES``
samples. The rule looks only at conv2's shape. At paper shape (6 400
taps) FFTs more than halved conv2's forward time at 32 samples and cut
its backward time by about a third at 4 samples on a 2-core machine. At
one sample, where whole-map im2col was faster, the window lowering
builds a 32 MB stacked kernel, and a forward pass took 47.9 ms against
44.9 ms with conv2 by FFT (medians of 40 runs on the same machine).
Conv1 always runs by im2col: at paper shape its 700 taps per output save
too little to pay for the transforms, and conv1 by FFT was no faster.
Small configs (k = 2-5, at most a few hundred taps) keep im2col
everywhere; a k = 3 config took twice as long by FFT.

Training and inference share one conv route (:func:`_conv_stages`). When
conv2 runs by FFT, each sample's conv1 map is pooled straight into the
zero-padded grid, ReLU'd there, and its spectrum joins
its block's input spectra, so inference holds no batch-sized conv1
output; training also copies the ReLU'd map and its argmax bytes into the
batch's pooled conv1 output, which the backward pass reads. Otherwise the
two im2col stages run one after the other.

Neither route is bit-identical to whole-map im2col. Conv2's outputs and
gradients by FFT match it to about 1e-15 of their largest value; its
bias gradient sums the pooled gradient as the im2col code does, bit for
bit. The window lowering sums each output's taps over a zero-padded
patch, in another order: paper conv1's pooled output moved by about
1e-15 of its largest value, with the same argmax bytes.

Each stage max-pools the pre-activation map and applies ReLU to the
pooled map, which is four times smaller; max-pooling commutes with the
monotone ReLU, so the result is the same as ReLU then pool. Pooling
takes four maxima without copying windows, of the four row blocks in an
im2col stage or of four strided views in the FFT stage, and writes the
argmax bytes the backward pass needs beside them, only in train mode.
Both backward passes route the pooled gradient back into the same views.

The network splits at the bottleneck: :func:`bottleneck_logits` takes
fc3's output to logits through fc4 and the output layer, the same code
that ends :func:`forward`, so a recogniser reads the features that
:func:`extract_bottleneck` and ``corpus.write_features`` produce and
scores them with the classifier that made them.

A training step forms fc1's weight gradient, fc1-sized (225 MiB at paper
shape), as its last large allocation: after both conv backward passes,
once the forward pass's conv caches and the conv gradients' buffers are
freed, so it never lies beside them (ordering a backward pass by buffer
lifetime, as in Chen et al. 2016). A paper-shape step at batch 8 peaks
at 246 MiB of allocations, of which the gradient is 225.

Checkpoints are read and written through one reused 1 MiB float32
block, so loading holds no more than the float64 tensors it returns and
saving makes no float32 copy of a tensor.

Parameter tensors are values: no function here writes into the arrays of a
:class:`FeatNetParams` it is given, and only :func:`train_sgd` rebinds
them, in its own copy of the ``tensors`` dict, so its result may share
arrays with its input. :func:`gradient_check` perturbs a private copy.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .corpus import window_stack
from .errors import DataError, NumericalError, UsageError, _array, _count, _real, open_input

_CKPT_MAGIC = b"FNET"
_DECAY_ROWS = 512  # rows of a weight gradient per weight-decay block
_LOAD_BLOCK = 1 << 18  # float32 values per checkpoint read or write block (1 MiB)
_ACCURACY_CHUNK = 512  # samples per forward pass when scoring accuracy
_POOL = 2  # max-pool window side and stride of both conv stages
_FFT_MIN_TAPS = 2048  # taps per output (c*k*k) from which conv2 runs by FFT
_FFT_FILTERS = 16  # filters per block of kernel spectra in the FFT conv stage
_FFT_SAMPLES = 32  # samples per block of input spectra in the forward FFT conv stage
_FFT_MAP_SAMPLES = 16  # samples per block of its products and inverse transforms
_FFT_GRAD_SAMPLES = 4  # samples per block in the backward FFT conv stage (~4 MB each)
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
        for name, length in (("input_shape", 3), ("conv_filters", 2), ("fc_dims", 4)):
            sizes = getattr(self, name)
            # a list would pass here and then fail every shape compare in forward
            if not isinstance(sizes, tuple) or len(sizes) != length:
                raise UsageError(f"{name} needs a tuple of {length} sizes, got {sizes!r}")
            # plain ints, so that a numpy integer reaches neither json.dumps nor a repr
            object.__setattr__(self, name, tuple(_count(size, name) for size in sizes))
        for name, least in (("conv_kernel", 1), ("n_classes", 2), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        # plain floats, so that a numpy float32 reaches no json.dumps
        lr, l2 = _real(self.lr, "lr"), _real(self.l2_weight, "l2_weight")
        if not 0.0 < lr < math.inf:
            raise UsageError(f"need a finite lr > 0, got {lr!r}")
        if not 0.0 <= l2 < math.inf:
            raise UsageError(f"need a finite l2_weight >= 0, got {l2!r}")
        object.__setattr__(self, "lr", lr)
        object.__setattr__(self, "l2_weight", l2)
        for name, (oh, ow) in self.stage_shapes().items():
            if oh < 1 or ow < 1:
                raise UsageError(
                    f"{name} output collapses to {oh}x{ow}; "
                    f"input {self.input_shape[1]}x{self.input_shape[2]} too small for "
                    f"kernel {self.conv_kernel}")

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


def _pooled_shape(x_shape, w_shape):
    """Shape (n, f, oh // _POOL, ow // _POOL) of a conv stage's pooled output,
    for input x (n, c, h, w) and weights w (f, c, k, k)."""
    n, _, h, wd = x_shape
    f, _, k, _ = w_shape
    return n, f, (h - k + 1) // _POOL, (wd - k + 1) // _POOL


def _by_fft(w_shape) -> bool:
    """Whether conv2, of weights w (f, c, k, k), runs through FFTs, in both
    directions: with at least ``_FFT_MIN_TAPS`` taps (c*k*k) per output."""
    return math.prod(w_shape[1:]) >= _FFT_MIN_TAPS


class _PoolWindows:
    """An im2col conv stage (Chellapilla et al. 2006) lowered to pooling
    windows: each p x p window (p = ``_POOL``) of a sample's conv map is
    computed in one product.

    The k x k kernels are zero-padded to K x K (K = k + p - 1) at each of
    the p*p offsets (i, j) of a window and stacked into one (p*p*f, c*K*K)
    matrix ``w2``, whose row block ``i*p + j`` holds the kernels shifted by
    (i, j). A column is the K x K input patch under one pooled output,
    taken at stride p. So one matmul per sample gives each window's p*p
    conv outputs as the p*p row blocks of ``blocks`` (p*p, f, ph, pw), and
    pooling is their elementwise maximum. The buffers are allocated once
    per stage; the backward pass routes its gradient into the same blocks.
    """

    def __init__(self, x_shape, w):
        c = x_shape[1]
        f, _, k, _ = w.shape
        p = _POOL
        self.side = side = k + p - 1
        _, _, self.ph, self.pw = _pooled_shape(x_shape, w.shape)
        stacked = np.zeros((p, p, f, c, side, side))
        for i, j in np.ndindex(p, p):
            stacked[i, j, :, :, i:i + k, j:j + k] = w
        self.w2 = stacked.reshape(p * p * f, c * side * side)
        self._cols = np.empty((c * side * side, self.ph * self.pw))
        self.blocks = np.empty((p * p, f, self.ph, self.pw))

    def cols(self, x_s):
        """The columns (c*K*K, ph*pw) of one sample x_s (c, h, w): row
        ``(ci*K + u)*K + v``, column ``i*pw + j`` holds ``x_s[ci, p*i + u,
        p*j + v]``. One copy from :func:`_windows`."""
        windows = _windows(x_s, self.side)
        np.copyto(self._cols.reshape(windows.shape), windows)
        return self._cols

    def __call__(self, x_s, b, out, idx=None):
        """Pool the conv map of one sample x_s (c, h, w), plus the bias b,
        into ``out`` (f, ph, pw) and, given ``idx``, its argmax bytes (see
        :func:`_pool_max`); returns ``out``. The bias is added to the
        pooled map, a quarter of the values: rounding is monotone, so the
        maximum of the biased values is the biased maximum."""
        np.matmul(self.w2, self.cols(x_s), out=self.blocks.reshape(len(self.w2), -1))
        _pool_max(self.blocks, out, idx)
        out += b[:, None, None]
        return out


def _conv_pool_forward(x, w, b, need_idx):
    """Valid convolution (cross-correlation) of x (n, c, h, w) with
    w (f, c, k, k) plus bias, then max-pool, by im2col.

    Runs one sample at a time through :class:`_PoolWindows`, so only the
    pooled (n, f, oh // _POOL, ow // _POOL) output and, with ``need_idx``,
    its argmax indices grow with the batch.
    """
    stage = _PoolWindows(x.shape, w)
    out = np.empty(_pooled_shape(x.shape, w.shape))
    idx = np.empty(out.shape, dtype=np.uint8) if need_idx else None
    for s in range(len(x)):
        stage(x[s], b, out[s], idx[s] if need_idx else None)
    return out, idx


def _fast_len(n: int) -> int:
    """The smallest length >= n whose only prime factors are 2, 3 and 5;
    numpy's FFTs are fastest on such lengths."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class _Spectra:
    """Spectra on the zero-padded gh x gw grid of an FFT conv stage (h and
    w rounded up by :func:`_fast_len`), where circular correlation leaves
    every valid output intact, for both directions of the stage.

    Input spectra are taken up to ``ns`` samples at a time. Kernel spectra
    are built from the k x k taps, and a weight gradient's taps read back
    from its spectra, by two DFT-matrix products, ``_FFT_FILTERS`` filters
    at a time, so the whole layer's spectra (f, c, gh, gw) never exist at
    once. Each buffer is allocated once and viewed at each block's size, so
    that partial blocks stay contiguous; :meth:`kernels` and
    :meth:`correlation_taps` share theirs, so an array either returns is
    valid until the next call of either.
    """

    def __init__(self, x_shape, w_shape, ns):
        _, c, h, wd = x_shape
        f, _, k, _ = w_shape
        gh, gw = _fast_len(h), _fast_len(wd)
        gr = gw // 2 + 1  # rfft bins along the width
        self.gh, self.gw, self.gr, self.bins = gh, gw, gr, gh * gr
        nf = min(f, _FFT_FILTERS)
        # conjugate DFT matrices over the taps: (gr, k) along the width, (gh, k) along the height
        self._dft_w = np.exp(2j * np.pi * (np.outer(np.arange(gr), np.arange(k)) % gw / gw))
        self._dft_h = np.exp(2j * np.pi * (np.outer(np.arange(gh), np.arange(k)) % gh / gh))
        # their adjoints for reading taps: every rfft bin but 0 and Nyquist
        # stands for two bins of the full grid, and the inverse DFT divides by gh * gw
        fold = np.where((np.arange(gr) == 0) | (2 * np.arange(gr) == gw), 1.0, 2.0)
        self._tap_w = (self._dft_w * (fold / (gh * gw))[:, None]).T
        self._tap_h = self._dft_h.T
        self._grid = np.zeros((c, gh, gw))  # one zero-padded sample
        self._corner = self._grid[:, :h, :wd]  # the part a sample's map fills
        self._spec = np.empty((c, gh, gr), dtype=complex)
        self._xf = np.empty(self.bins * ns * c, dtype=complex)
        self._kernel_sizes = (k * k * c * nf, k * gr * c * nf, self.bins * c * nf)

    @functools.cached_property
    def _kernel_buffers(self):
        """The buffers of taps, per-row spectra and spectra that
        :meth:`kernels` and :meth:`correlation_taps` share, allocated at
        their first use, after a caller's work on the input spectra."""
        return tuple(np.empty(size, dtype=complex) for size in self._kernel_sizes)

    def free_kernel_buffers(self):
        """Free the buffers of :meth:`kernels`, which its next call
        allocates anew."""
        self.__dict__.pop("_kernel_buffers", None)

    def inputs(self, m, fill):
        """Spectra of m samples, as (bins, m, c). ``fill(j, grid)`` writes
        sample j's (c, h, w) map into ``grid``, a view of the zero-padded
        grid whose padding it leaves untouched."""
        c = self._grid.shape[0]
        xf = self._xf[:self.bins * m * c].reshape(self.gh, self.gr, m, c)
        for j in range(m):
            fill(j, self._corner)
            np.fft.rfft2(self._grid, out=self._spec)
            xf[:, :, j] = self._spec.transpose(1, 2, 0)
        return xf.reshape(self.bins, m, c)

    def kernels(self, w):
        """Conjugate spectra of the kernels w (fb, c, k, k), as (bins, c, fb)."""
        fb, c, k, _ = w.shape
        taps, rows, spectra = self._kernel_buffers
        wt = taps[:k * k * c * fb].reshape(k, k, c * fb)
        wt.reshape(k, k, c, fb)[...] = w.transpose(2, 3, 1, 0)
        rows = rows[:k * self.gr * c * fb].reshape(k, self.gr, c * fb)
        np.matmul(self._dft_w, wt, out=rows)  # along the width, per kernel row
        kf = spectra[:self.bins * c * fb].reshape(self.gh, self.gr * c * fb)
        np.matmul(self._dft_h, rows.reshape(k, self.gr * c * fb), out=kf)  # along the height
        return kf.reshape(self.bins, c, fb)

    def correlation_taps(self, daf, xf):
        """The real k x k taps (fb, c, k, k) of the correlation of the
        inputs with the conv-map gradients, summed over samples, given the
        gradients' conjugate spectra ``daf`` (bins, fb, m) and the input
        spectra ``xf`` (bins, m, c): per bin, their product is that
        correlation's spectrum, whose taps are read out by the adjoint of
        :meth:`kernels`, with no inverse FFT over the grid. The product
        takes the kernel spectra's buffer."""
        fb, c, k = daf.shape[1], xf.shape[2], self._tap_h.shape[0]
        taps, rows, spectra = self._kernel_buffers
        g = spectra[:self.bins * fb * c].reshape(self.bins, fb, c)
        np.matmul(daf, xf, out=g)
        rows = rows[:k * self.gr * fb * c].reshape(k, self.gr, fb * c)
        np.matmul(self._tap_h, g.reshape(self.gh, self.gr * fb * c),
                  out=rows.reshape(k, self.gr * fb * c))  # along the height
        t = taps[:k * k * fb * c].reshape(k, k, fb * c)
        np.matmul(self._tap_w, rows, out=t)  # along the width, per tap row
        return t.real.reshape(k, k, fb, c).transpose(2, 3, 0, 1)


def _conv_pool_spectra(spectra, xf, w, b, out, idx):
    """Pool the conv maps of the samples whose input spectra are ``xf``
    (bins, m, c) into ``out`` (m, f, ph, pw) and, given ``idx``, its argmax
    bytes.

    Filters go ``_FFT_FILTERS`` at a time in the outer loop, so each kernel
    spectrum is built once per call. Per filter block, samples go
    ``_FFT_MAP_SAMPLES`` at a time: per frequency bin, the conv maps'
    spectrum is the input spectra times the conjugate kernel spectra
    (:class:`_Spectra`), summed over channels, one stacked matmul over the
    bins straight into the layout the inverse transform reads; then the
    bias add and the pool. The working buffers are allocated once per call
    and reused, and the kernel spectra's buffers are freed on return, so
    that the next block's conv1 buffers never lie beside them.
    """
    m = xf.shape[1]
    f = w.shape[0]
    oh, ow = _POOL * out.shape[2], _POOL * out.shape[3]  # the part of each map pooling reads
    ms, nf = min(m, _FFT_MAP_SAMPLES), min(f, _FFT_FILTERS)
    gh, gw, gr, bins = spectra.gh, spectra.gw, spectra.gr, spectra.bins
    # flat buffers, viewed at each block's size so that partial blocks stay
    # contiguous; the conv maps (gh x gw real values each) take the place of
    # the products (gh x gr complex), which the inverse FFT has consumed
    yf_buf = np.empty(bins * ms * nf, dtype=complex)
    zf_buf = np.empty(bins * ms * nf, dtype=complex)
    for f0 in range(0, f, nf):
        fb = min(nf, f - f0)
        kf = spectra.kernels(w[f0:f0 + fb])
        for j0 in range(0, m, ms):
            mb = min(ms, m - j0)
            yf = yf_buf[:bins * mb * fb].reshape(gh, gr, mb, fb)
            np.matmul(xf[:, j0:j0 + mb], kf, out=yf.reshape(bins, mb, fb))
            zf = zf_buf[:bins * mb * fb].reshape(mb, fb, gh, gr)
            np.fft.ifft(yf, axis=0, out=zf.transpose(2, 3, 0, 1))
            conv = yf_buf.view(float)[:mb * fb * gh * gw].reshape(mb, fb, gh, gw)
            np.fft.irfft(zf, n=gw, axis=-1, out=conv)
            conv = conv[:, :, :oh, :ow]
            conv += b[f0:f0 + fb, None, None]
            block = np.s_[j0:j0 + mb, f0:f0 + fb]
            _pool_max(_pool_views(conv), out[block], None if idx is None else idx[block])
    spectra.free_kernel_buffers()


def _conv_stages(x, t, train_mode):
    """Both conv stages on x (n, c, h, w) with the tensors ``t``: conv2's
    pooled map (n, f2, ph2, pw2), before its ReLU, and the dict that the
    backward pass reads, which in train mode holds the ReLU'd pooled conv1
    output ``p1`` and the argmax bytes ``idx1`` and ``idx2``, and is empty
    otherwise.

    When conv2 runs by FFT (:func:`_by_fft`), the input spectra of each
    block of ``_FFT_SAMPLES`` samples come straight from conv1's stage
    (:func:`_conv1_spectra`) and go through :func:`_conv_pool_spectra`.
    Otherwise the two im2col stages run one after the other.
    """
    w1, b1, w2, b2 = t["conv1_w"], t["conv1_b"], t["conv2_w"], t["conv2_b"]
    n = len(x)
    p1_shape = _pooled_shape(x.shape, w1.shape)
    if _by_fft(w2.shape):
        p1 = np.empty(p1_shape) if train_mode else None
        idx1 = np.empty(p1_shape, dtype=np.uint8) if train_mode else None
        p2 = np.empty(_pooled_shape(p1_shape, w2.shape))
        idx2 = np.empty(p2.shape, dtype=np.uint8) if train_mode else None
        spectra = _Spectra(p1_shape, w2.shape, min(n, _FFT_SAMPLES))
        for s0 in range(0, n, _FFT_SAMPLES):
            block = np.s_[s0:s0 + _FFT_SAMPLES]
            p1b, idx1b, idx2b = (None if a is None else a[block] for a in (p1, idx1, idx2))
            xf = _conv1_spectra(x[block], w1, b1, spectra, p1b, idx1b)
            _conv_pool_spectra(spectra, xf, w2, b2, p2[block], idx2b)
    else:
        p1, idx1 = _conv_pool_forward(x, w1, b1, need_idx=train_mode)
        np.maximum(p1, 0.0, out=p1)
        p2, idx2 = _conv_pool_forward(p1, w2, b2, need_idx=train_mode)
    return p2, (dict(p1=p1, idx1=idx1, idx2=idx2) if train_mode else {})


def _conv1_spectra(x, w, b, spectra, p1, idx1):
    """The input spectra (bins, n, c) of conv2 for the samples x (n, c, h, w):
    each sample's conv1 map is pooled by :class:`_PoolWindows` straight
    into the zero-padded grid of ``spectra`` and ReLU'd there. Given ``p1``
    and ``idx1`` (train mode), sample j's ReLU'd map is also copied into
    ``p1[j]`` and its argmax bytes written into ``idx1[j]``. The stage's
    buffers are freed on return, before conv2's own buffers are allocated."""
    conv1 = _PoolWindows(x.shape, w)

    def fill(j, grid):
        np.maximum(conv1(x[j], b, grid, None if idx1 is None else idx1[j]), 0.0, out=grid)
        if p1 is not None:
            p1[j] = grid
    return spectra.inputs(len(x), fill)


def _pool_conv_backward(x, w, dpool, idx, need_dx):
    """Gradients (dx, dw, db) of :func:`_conv_pool_forward`, given the
    gradient ``dpool`` of its pooled output, by the same
    :class:`_PoolWindows` stage.

    Per sample, the argmax bytes route the pooled gradient into the p*p row
    blocks of the stage (:func:`_pool_route`); the stacked kernels' gradient
    accumulates that block matrix times the columns' transpose, and is
    folded back over the p*p offsets into dw at the end. For dx the column
    gradient ``w2.T @ blocks`` is written into the column buffer and added
    back through each (u, v) slice of :func:`_windows` (col2im). db sums the
    pooled gradient, as the FFT backward does. With ``need_dx`` False, dx
    is skipped and returned as None.
    """
    n, c = x.shape[:2]
    f, _, k, _ = w.shape
    p = _POOL
    dw = np.zeros(w.shape)
    db = dpool.sum(axis=(2, 3)).sum(axis=0)
    dx = np.zeros(x.shape) if need_dx else None
    stage = _PoolWindows(x.shape, w)
    side = stage.side
    dstacked = np.zeros_like(stage.w2)
    blocks = stage.blocks.reshape(len(dstacked), -1)
    for s in range(n):
        _pool_route(dpool[s], idx[s], stage.blocks)
        cols = stage.cols(x[s])
        dstacked += blocks @ cols.T
        if need_dx:
            np.matmul(stage.w2.T, blocks, out=cols)
            windows = _windows(dx[s], side)
            view = cols.reshape(windows.shape)
            for u, v in np.ndindex(side, side):
                windows[:, u, v] += view[:, u, v]
    dstacked = dstacked.reshape(p, p, f, c, side, side)
    for i, j in np.ndindex(p, p):
        dw += dstacked[i, j, :, :, i:i + k, j:j + k]
    return dx, dw, db


def _pool_conv_backward_fft(x, w, dpool, idx):
    """:func:`_pool_conv_backward` with ``need_dx`` True, through real FFTs
    on the grid of the forward FFT stage (Mathieu et al. 2014), for conv2
    when :func:`_by_fft` selects it.

    Per block of samples and filters, the pooled gradient is routed into
    the strided views of the zero grid, which is transformed to DA. Per
    bin, the weight gradient's spectrum is the sum over samples of
    conj(DA) X, with X the input spectra; :meth:`_Spectra.correlation_taps`
    forms it and reads out its k x k taps, added up across sample blocks. The
    input gradient's spectrum is the sum over filters of DA K, with K the
    kernel spectra; it is accumulated as its conjugate, conj(DA) times the
    conjugate spectra that :meth:`_Spectra.kernels` builds, and taken back
    by one inverse transform per sample block. db sums the pooled
    gradient as the im2col code does, so it is bit-identical. Samples go
    ``_FFT_GRAD_SAMPLES`` at a time, since the input spectra, the dx
    accumulator, its product and its inverse transform grow with the
    block: about 4 MB per sample at paper shape.
    """
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    ns, nf = min(n, _FFT_GRAD_SAMPLES), min(f, _FFT_FILTERS)
    # the results first, so that the working buffers lie above them in the
    # heap and go back to the system when they are freed (a paper-shape
    # training step's peak RSS was 30 MiB higher the other way round)
    dw = np.zeros(w.shape)
    db = dpool.sum(axis=(2, 3)).sum(axis=0)
    dx = np.empty(x.shape)
    spectra = _Spectra(x.shape, w.shape, ns)
    gh, gw, gr, bins = spectra.gh, spectra.gw, spectra.gr, spectra.bins
    # flat buffers, viewed at each block's size so that partial blocks stay contiguous
    # each map keeps its gh x gw slot in every block, so cells outside its
    # pooled windows are never written and stay zero
    grid_buf = np.zeros(ns * nf * gh * gw)
    spec_buf = np.empty(ns * nf * gh * gr, dtype=complex)
    daf_buf = np.empty(bins * ns * nf, dtype=complex)
    dxf_buf = np.empty(bins * ns * c, dtype=complex)
    prod_buf = np.empty(bins * ns * c, dtype=complex)
    for s0 in range(0, n, ns):
        m = min(ns, n - s0)
        xf = spectra.inputs(m, lambda j, grid: np.copyto(grid, x[s0 + j]))
        dxf = dxf_buf[:bins * c * m].reshape(bins, c, m)
        dxf[...] = 0.0
        prod = prod_buf[:bins * c * m].reshape(bins, c, m)
        for f0 in range(0, f, nf):
            fb = min(nf, f - f0)
            block = np.s_[s0:s0 + m, f0:f0 + fb]
            grid = grid_buf[:m * fb * gh * gw].reshape(m, fb, gh, gw)
            _pool_route(dpool[block], idx[block], _pool_views(grid[:, :, :oh, :ow]))
            spec = spec_buf[:m * fb * gh * gr].reshape(m, fb, gh, gr)
            np.fft.rfft2(grid, out=spec)
            # conj(DA) per bin as (fb, m), so that both products below read
            # their operands in the layout they are stored in
            daf = daf_buf[:bins * fb * m].reshape(gh, gr, fb, m)
            np.conjugate(spec.transpose(2, 3, 1, 0), out=daf)
            daf = daf.reshape(bins, fb, m)
            dw[f0:f0 + fb] += spectra.correlation_taps(daf, xf)
            np.matmul(spectra.kernels(w[f0:f0 + fb]), daf, out=prod)
            dxf += prod
        np.conjugate(dxf, out=dxf)
        zf = prod_buf[:bins * c * m].reshape(m, c, gh, gr)
        np.fft.ifft(dxf.reshape(gh, gr, c, m), axis=0, out=zf.transpose(2, 3, 1, 0))
        dx[s0:s0 + m] = np.fft.irfft(zf, n=gw, axis=-1)[:, :, :h, :wd]
    return dx, dw, db


def _windows(a, side):
    """The side x side windows of a (..., h, w) at stride p (p = ``_POOL``),
    as one strided view (..., side, side, ph, pw) of a, with ph = (h - side)
    // p + 1 and pw likewise, so that it never reaches past a: entry
    ``[..., u, v, i, j]`` is ``a[..., p*i + u, p*j + v]``. Windows overlap
    when side > p, so a write through the view goes one (u, v) at a time."""
    (*lead, h, w), (*outer, sh, sw) = a.shape, a.strides
    return as_strided(a, (*lead, side, side, (h - side) // _POOL + 1, (w - side) // _POOL + 1),
                      (*outer, sh, sw, _POOL * sh, _POOL * sw))


def _pool_views(x):
    """The p*p strided views (..., h // p, w // p) of the windows of x
    (..., h, w), row-major by window position (p = ``_POOL``): the
    ``[..., i, j, :, :]`` slices of :func:`_windows`, which leave trailing
    rows and columns out."""
    windows = _windows(x, _POOL)
    return [windows[..., i, j, :, :] for i, j in np.ndindex(_POOL, _POOL)]


def _pool_max(views, out, idx=None):
    """The elementwise maximum of the p*p ``views`` of each window's values,
    row-major by window position, into ``out``. Given ``idx`` (uint8, the
    shape of ``out``), every byte of it is set to the first argmax within
    its window (``i*p + j``). ``out`` and ``idx`` may be strided views."""
    np.maximum(views[0], views[1], out=out)
    for v in views[2:]:
        np.maximum(out, v, out=out)
    if idx is not None:
        # in reverse, so the first position holding the max is written last;
        # a window's max is one of its values, so every byte is written
        for q in range(len(views) - 1, -1, -1):
            np.copyto(idx, q, where=views[q] == out)


def _pool_route(dout, idx, views):
    """Gradient of :func:`_pool_max`: each window's ``dout`` into the view
    of its argmax position, zeros into the others, so every element of
    the views is written."""
    for q, view in enumerate(views):
        np.multiply(dout, idx == q, out=view)


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
    x = _array(x, "x", np.float64)
    if x.shape[1:] != cfg.input_shape:
        raise DataError(f"sample shape {x.shape[1:]} != config {cfg.input_shape}")
    if len(x) == 0:
        raise DataError("a batch of zero samples has no forward pass")
    # checked here, before NaN reaches the batch-norm moments or, by FFT, a whole map
    finite = np.isfinite(x).reshape(x.shape[0], -1).all(axis=1)
    if not finite.all():
        raise DataError(f"sample {np.argmin(finite)} of the batch holds NaN or inf")
    cache: dict[str, np.ndarray] = {"x": x}

    # pool each sample's conv map, then ReLU in place on the pooled map
    # (see the module docstring)
    p2, conv_cache = _conv_stages(x, t, train_mode)
    cache.update(conv_cache)
    np.maximum(p2, 0.0, out=p2)
    flat = p2.reshape(x.shape[0], -1)

    if train_mode:
        mu = flat.mean(axis=0)
        var = flat.var(axis=0)
    else:
        mu, var = t["bn_mean"], t["bn_var"]
    bn, xhat = _bn_forward(flat, t["bn_gamma"], t["bn_beta"], mu, var)

    cache.update(p2=p2, xhat=xhat, bn_mean=mu, bn_var=var, bn=bn)
    h = bn
    acts = []
    for name in ("fc1", "fc2", "fc3"):
        h = np.maximum(h @ t[f"{name}_w"] + t[f"{name}_b"], 0.0)
        acts.append(h)
    fc4, logits = _head(t, h)
    acts.append(fc4)
    cache["acts"] = acts
    return logits, acts[2], cache


def _head(t, bneck):
    """fc4's activation and the logits of bottleneck rows (fc3's output)."""
    h = np.maximum(bneck @ t["fc4_w"] + t["fc4_b"], 0.0)
    return h, h @ t["out_w"] + t["out_b"]


def bottleneck_logits(params: FeatNetParams, feats: np.ndarray) -> np.ndarray:
    """Logits of bottleneck feature rows, such as :func:`extract_bottleneck`
    returns: fc4 and the output layer, the code that ends :func:`forward`.
    DataError unless ``feats`` is (n, bottleneck_dim) and finite."""
    feats = _array(feats, "feats", np.float64)
    d = params.config.bottleneck_dim
    if feats.ndim != 2 or feats.shape[1] != d:
        raise DataError(f"bottleneck features must be (n, {d}), got shape {feats.shape}")
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise DataError(f"feature row {np.argmin(finite)} holds NaN or inf")
    return _head(params.tensors, feats)[1]


def _batch(x, what: str, dtype=None) -> np.ndarray:
    """``x`` by :func:`_array`; DataError naming ``what`` for a 0-d value,
    which has no sample axis to take a length from."""
    x = _array(x, what, dtype)
    if x.ndim == 0:
        raise DataError(f"{what}: need a batch with a sample axis, got the 0-d value {x}")
    return x


def _labels(y, n: int, n_classes: int, what: str) -> np.ndarray:
    """``y`` as int64 if it holds one integer label in [0, n_classes) for
    each of ``n`` samples; DataError naming ``what`` otherwise."""
    y = _array(y, what)
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
    DataError unless ``y`` holds one class index per sample of ``x``.

    fc1's weight gradient, the step's largest array, is its last large
    allocation: it is formed after the conv backward passes, once the conv
    caches and buffers are freed (see the module docstring)."""
    cfg = params.config
    t = params.tensors
    x = _batch(x, "x", np.float64)
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
    for i in (3, 2, 1, 0):
        name = f"fc{i + 1}"
        dh = dh * (acts[i] > 0)
        if i:
            grads[f"{name}_w"] = acts[i - 1].T @ dh
        else:
            dfc1 = dh  # fc1's weight gradient is formed last (see below)
        grads[f"{name}_b"] = dh.sum(axis=0)
        dh = dh @ t[f"{name}_w"].T

    xhat = cache.pop("xhat")
    grads["bn_gamma"] = (dh * xhat).sum(axis=0)
    grads["bn_beta"] = dh.sum(axis=0)
    inv_std = 1.0 / np.sqrt(cache["bn_var"] + _BN_EPS)
    dxhat = dh * t["bn_gamma"]
    dflat = inv_std * (dxhat - dxhat.mean(axis=0)
                       - xhat * (dxhat * xhat).mean(axis=0))
    del xhat, dxhat, dh

    # A window whose pooled max is not positive was zeroed by the ReLU and
    # passes no gradient; elsewhere the argmax of the pre-activation window
    # is the unit the ReLU let through.
    p1, p2 = cache.pop("p1"), cache.pop("p2")
    dp2 = dflat.reshape(p2.shape) * (p2 > 0)
    del dflat, p2
    idx2 = cache.pop("idx2")
    if _by_fft(t["conv2_w"].shape):
        dp1, dw2, db2 = _pool_conv_backward_fft(p1, t["conv2_w"], dp2, idx2)
    else:
        dp1, dw2, db2 = _pool_conv_backward(p1, t["conv2_w"], dp2, idx2, need_dx=True)
    grads["conv2_w"], grads["conv2_b"] = dw2, db2
    del dp2, idx2
    dp1 *= p1 > 0
    del p1
    _, dw1, db1 = _pool_conv_backward(cache["x"], t["conv1_w"], dp1, cache.pop("idx1"),
                                      need_dx=False)
    grads["conv1_w"], grads["conv1_b"] = dw1, db1
    del dp1

    # fc1's weight gradient only now, with the conv caches and buffers freed
    grads["fc1_w"] = cache["bn"].T @ dfc1

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
    x = _batch(x, "x")
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
    train_x, val_x = _batch(train_x, "train_x"), _batch(val_x, "val_x")
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise DataError("train and validation sets must be nonempty")
    cfg = params.config
    epochs = _count(epochs, "epochs")
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

    The frames are windowed once, as a read-only view of one padded copy
    of n + 24 frames; each chunk is a slice of it. That copy is smaller
    than windowing each chunk apart (7 x (chunk + 24) frames) for n below
    7 * chunk + 144, 1 936 frames at the default chunk; a longer sequence
    costs at most one more copy of ``frames``. DataError names the first
    frame that holds NaN or inf.

    Features are bit-reproducible only for a fixed ``chunk``: a GEMM over
    one row can round differently from the same row inside a many-row
    GEMM, so changing ``chunk`` may change the last bits.
    """
    chunk = _count(chunk, "chunk")
    frames = _array(frames, "frames", np.float64)
    x = window_stack(frames)
    finite = np.isfinite(frames).reshape(len(x), -1).all(axis=1)
    if not finite.all():
        raise DataError(f"frame {np.argmin(finite)} holds NaN or inf")
    out = np.empty((len(x), params.config.bottleneck_dim))
    for lo in range(0, len(x), chunk):
        out[lo:lo + chunk] = forward(params, x[lo:lo + chunk])[1]
    return out


def gradient_check(params: FeatNetParams, x: np.ndarray, y: np.ndarray,
                   n_coords: int = 200) -> float:
    """Max relative error between analytic gradients and central finite
    differences, at step 1e-5, over a fixed random subset of ``n_coords``
    coordinates. The step is small enough not to cross the ReLU and
    max-pool kinks near a unit of a wide He-scaled conv stage, which a step
    of 1e-3 did, and large enough that round-off stays below 1e-7."""
    n_coords = _count(n_coords, "n_coords")
    epsilon = 1e-5
    params = params.copy()
    _, grads = loss_and_grads(params, x, y)
    rng = np.random.default_rng(0)
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
    tensors in declaration order, each in C order whatever its layout.

    Each tensor is cast through one reused buffer of ``_LOAD_BLOCK``
    float32 values, so no float32 copy of a whole tensor is made.
    """
    cfg_json = json.dumps(asdict(params.config)).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(cfg_json)))
        fh.write(cfg_json)
        for name in FeatNetParams.TENSOR_NAMES:
            for block in np.nditer(params.tensors[name], flags=["external_loop", "buffered"],
                                   op_dtypes=["<f4"], order="C", casting="same_kind",
                                   buffersize=_LOAD_BLOCK):
                fh.write(block)


def load_params(path: str | Path) -> FeatNetParams:
    """Read a checkpoint written by :func:`save_params`.

    The float32 payload is read through the buffer of an ``np.nditer`` of
    ``_LOAD_BLOCK`` values, as :func:`save_params` writes it, and cast into
    the float64 tensors, so the file is never held whole in memory.
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
        tensors = {}
        for name in FeatNetParams.TENSOR_NAMES:
            tensors[name] = np.empty(shapes[name])
            with np.nditer(tensors[name], flags=["external_loop", "buffered"],
                           op_flags=[["writeonly"]], op_dtypes=["<f4"], order="C",
                           casting="same_kind", buffersize=_LOAD_BLOCK) as blocks:
                for part in blocks:
                    if fh.readinto(part) != part.nbytes:
                        raise DataError(f"{path}: checkpoint ended inside tensor {name}")
    return FeatNetParams(config, tensors)
