"""The BN state an adaptation method changes, as one value type.

BN-Norm re-estimates the BN running statistics and BN-Opt also steps
gamma/beta (under 1 % of the weights); no method touches anything else.
:class:`BNState` is that state, captured from a model and applied back
onto it: per BN layer the running mean and variance, gamma, beta,
``batches_tracked`` and ``momentum``, plus every module's ``training``
flag and every parameter's ``requires_grad``.  It is the one copy
mechanism behind a method's episodic ``reset()``, the guard's per-batch
rollback, the drift references, a session's teardown and its
checkpoints.

:func:`frozen_digest` fingerprints the rest of the model — the weights no
method changes — so a checkpoint can carry BN state alone and still
refuse to resume onto different weights.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from repro import nn
from repro.nn.module import Module


def bn_layers(model: Module) -> List[nn.BatchNorm2d]:
    """All BatchNorm2d layers of a model, in traversal order."""
    return [m for m in model.modules() if isinstance(m, nn.BatchNorm2d)]


class BNLayerState(NamedTuple):
    """One BN layer's adaptable state; the arrays are float32 copies."""

    running_mean: np.ndarray
    running_var: np.ndarray
    weight: np.ndarray       # gamma
    bias: np.ndarray         # beta
    batches_tracked: int
    momentum: float


#: the array fields of a layer, in tree order
_ARRAYS = BNLayerState._fields[:4]


@dataclass(frozen=True, eq=False)
class BNState:
    """Everything adaptation changes in a model, as an immutable value.

    ``capture`` copies out of a model and ``apply`` copies back in, so
    one snapshot can be applied any number of times.  Equality is bit
    equality (NaN payloads, signed zeros and all), which is what the
    bit-identity contracts of reset, rollback and resume compare.
    """

    layers: Tuple[BNLayerState, ...]
    #: every module's ``training`` flag, in ``model.modules()`` order
    training: Tuple[bool, ...]
    #: every parameter's ``requires_grad``, in ``model.parameters()`` order
    requires_grad: Tuple[bool, ...]

    @classmethod
    def capture(cls, model: Module) -> "BNState":
        """Copy ``model``'s BN state and mode flags."""
        modules = list(model.modules())
        return cls(
            layers=tuple(BNLayerState(
                layer.running_mean.copy(), layer.running_var.copy(),
                layer.weight.data.copy(), layer.bias.data.copy(),
                int(layer.batches_tracked), float(layer.momentum))
                for layer in modules if isinstance(layer, nn.BatchNorm2d)),
            training=tuple(bool(module.training) for module in modules),
            requires_grad=tuple(bool(param.requires_grad)
                                for param in model.parameters()))

    def check(self, model: Module) -> None:
        """Raise ``ValueError`` unless ``model`` has this state's layout.

        The layout is the channel count of every BN layer plus the
        module and parameter counts the flags cover.
        """
        self._layout(model)

    def _layout(self, model: Module) -> tuple:
        """The model's (BN layers, modules, parameters), layout-checked."""
        modules = list(model.modules())
        params = list(model.parameters())
        layers = [m for m in modules if isinstance(m, nn.BatchNorm2d)]
        channels = [layer.num_features for layer in layers]
        mine = [len(saved.running_mean) for saved in self.layers]
        if channels != mine:
            raise ValueError(f"BN state has layers of {mine} channels; "
                             f"model has {channels}")
        if (len(modules), len(params)) != (len(self.training),
                                           len(self.requires_grad)):
            raise ValueError(
                f"BN state covers {len(self.training)} modules and "
                f"{len(self.requires_grad)} parameters; model has "
                f"{len(modules)} and {len(params)}")
        return layers, modules, params

    def apply(self, model: Module) -> None:
        """Copy this state into ``model``.

        Checks the layout first, so a mismatch raises ``ValueError``
        before anything changes.
        """
        layers, modules, params = self._layout(model)
        for layer, saved in zip(layers, self.layers):
            layer.set_buffer("running_mean", saved.running_mean.copy())
            layer.set_buffer("running_var", saved.running_var.copy())
            layer.weight.data = saved.weight.copy()
            layer.bias.data = saved.bias.copy()
            layer.batches_tracked = saved.batches_tracked
            layer.momentum = saved.momentum
        for module, flag in zip(modules, self.training):
            object.__setattr__(module, "training", flag)
        for param, flag in zip(params, self.requires_grad):
            param.requires_grad = flag

    def to_tree(self) -> dict:
        """This state as a plain tree of arrays, numbers and bools."""
        return {"layers": [saved._asdict() for saved in self.layers],
                "training": list(self.training),
                "requires_grad": list(self.requires_grad)}

    @classmethod
    def from_tree(cls, tree: dict) -> "BNState":
        """Inverse of :meth:`to_tree`; a malformed tree raises ``ValueError``."""
        try:
            return cls(layers=tuple(_layer_from_tree(entry)
                                    for entry in tree["layers"]),
                       training=_flags(tree["training"]),
                       requires_grad=_flags(tree["requires_grad"]))
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed BN state: {error!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, BNState):
            return NotImplemented
        return (self.training == other.training
                and self.requires_grad == other.requires_grad
                and [_bits(saved) for saved in self.layers]
                == [_bits(saved) for saved in other.layers])


def _bits(saved: BNLayerState) -> tuple:
    return tuple(getattr(saved, name).tobytes() for name in _ARRAYS) + (
        saved.batches_tracked, np.float64(saved.momentum).tobytes())


def _layer_from_tree(entry: dict) -> BNLayerState:
    if set(entry) != set(BNLayerState._fields):
        raise ValueError(f"BN layer entry has fields {sorted(entry)}")
    arrays = [np.array(entry[name]) for name in _ARRAYS]
    for name, array in zip(_ARRAYS, arrays):
        if array.dtype != np.float32 or array.shape != arrays[0].shape \
                or array.ndim != 1:
            raise ValueError(f"BN layer {name} is {array.dtype} "
                             f"{array.shape}, not float32 like "
                             f"running_mean {arrays[0].shape}")
    return BNLayerState(*arrays, batches_tracked=int(entry["batches_tracked"]),
                        momentum=float(entry["momentum"]))


def _flags(values) -> Tuple[bool, ...]:
    flags = tuple(values)
    if not all(isinstance(flag, bool) for flag in flags):
        raise ValueError("mode flags must be booleans")
    return flags


def frozen_digest(model: Module) -> str:
    """16-hex sha256 of the weights outside the BN layers.

    Hashes the name, dtype, shape and bytes of every parameter and
    buffer not owned by a BatchNorm2d: everything :class:`BNState`
    leaves out, so a BN state plus this digest pins the whole model.
    """
    bn_names = {name for name, module in model.named_modules()
                if isinstance(module, nn.BatchNorm2d)}
    digest = hashlib.sha256()
    named = [(name, param.data) for name, param in model.named_parameters()]
    named += list(model.named_buffers())
    for name, array in named:
        if name.rpartition(".")[0] in bn_names:
            continue
        digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]
