"""Skeleton action recognition with learned dynamic graph topology."""

from .tensor import (
    Tensor,
    no_grad,
    add,
    mul,
    neg,
    scale,
    relu,
    reshape,
    permute,
    matmul,
    conv2d,
    batch_norm,
    softmax,
    softmax_cross_entropy,
    l2_row_normalize,
    mean_pool_global,
)
from .layers import Parameter, Module, Conv2d, BatchNorm, Linear
from .optim import NesterovSGD
from .gradcheck import finite_difference_grad, relative_error, check_gradient

__version__ = "0.1.0"
