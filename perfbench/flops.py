"""Computed FeatNet FLOP counts, from the config's shapes alone.

Only the multiply-adds of the convolution and fully-connected layers are
counted (2 FLOPs each); pooling, ReLU, batch norm and softmax are left
out. These are computed figures, not measured ones.
"""

from __future__ import annotations


def forward_flops(config) -> dict[str, int]:
    """FLOPs of one sample's forward pass, per weight layer."""
    c, _, _ = config.input_shape
    k = config.conv_kernel
    f1, f2 = config.conv_filters
    shapes = config.stage_shapes()
    (h1, w1), (h2, w2) = shapes["conv1"], shapes["conv2"]
    out = {
        "conv1": 2 * h1 * w1 * f1 * c * k * k,
        "conv2": 2 * h2 * w2 * f2 * f1 * k * k,
    }
    dims = [config.flat_dim, *config.fc_dims, config.n_classes]
    for name, din, dout in zip(("fc1", "fc2", "fc3", "fc4", "out"), dims[:-1], dims[1:]):
        out[name] = 2 * din * dout
    return out


def train_step_flops(config) -> int:
    """FLOPs of one sample's forward and backward pass.

    The backward pass costs one weight-gradient product per layer and one
    input-gradient product per layer except conv1, whose input gradient is
    not needed.
    """
    fwd = forward_flops(config)
    return 3 * sum(fwd.values()) - fwd["conv1"]
