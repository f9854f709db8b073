"""From-scratch NumPy neural network substrate (autograd, layers, optim).

This package replaces the paper's PyTorch dependency.  It provides exact
reverse-mode gradients — in particular the gradient of a classifier output
with respect to the word-embedding layer, which drives the paper's
gradient-guided greedy attack (Algorithm 3).
"""

from repro.nn.functional import dropout, log_softmax, relu, sigmoid, softmax, tanh
from repro.nn.inference import (
    Kernels,
    kernels_for,
    register_kernels,
    softmax_np,
)
from repro.nn.layers import (
    Conv1d,
    Dense,
    Dropout,
    Embedding,
    MaxOverTime,
    Module,
    Parameter,
    Sequential,
)
from repro.nn.losses import binary_cross_entropy_with_logits, l2_penalty, softmax_cross_entropy
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.rnn import GRU, LSTM, SimpleRNN
from repro.nn.serialization import load, load_state_dict, save, state_dict
from repro.nn.tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack, where

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "Module",
    "Parameter",
    "Dense",
    "Embedding",
    "Conv1d",
    "MaxOverTime",
    "Dropout",
    "Sequential",
    "LSTM",
    "GRU",
    "SimpleRNN",
    "softmax",
    "log_softmax",
    "relu",
    "tanh",
    "sigmoid",
    "dropout",
    "softmax_cross_entropy",
    "binary_cross_entropy_with_logits",
    "l2_penalty",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "state_dict",
    "load_state_dict",
    "save",
    "load",
    "Kernels",
    "register_kernels",
    "kernels_for",
    "softmax_np",
]
