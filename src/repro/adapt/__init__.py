"""Test-time unsupervised adaptation algorithms (the paper's Section II).

Three methods, all operating on unlabeled test batches:

- :class:`NoAdapt` — frozen model in eval mode (the paper's baseline).
- :class:`BNNorm` — prediction-time BN: re-estimate BN normalization
  statistics from the incoming batch (Nado et al. 2020, Schneider et al.
  2020).  No backpropagation.
- :class:`BNOpt` — TENT (Wang et al. 2021): re-estimate the statistics
  *and* optimize the BN affine parameters (gamma/beta) with a single
  entropy-minimization backprop step per batch using Adam.

All three share the :class:`AdaptationMethod` interface: ``prepare`` a
model once, then call ``forward`` per streamed batch; ``forward`` returns
logits for scoring and performs whatever adaptation the method defines —
matching the paper's measured "forward time (inference + any adaptation)".

:class:`BNState` is everything those methods change in a model (BN
statistics, gamma/beta, counters, momentum, mode flags) as one value:
the single copy mechanism behind ``reset()``, guard rollback, drift
references and session checkpoints.
"""

from repro.adapt.base import AdaptationMethod, bn_layers, bn_parameters, configure_bn_only_grads
from repro.adapt.bn_norm import BNNorm
from repro.adapt.bn_opt import BNOpt
from repro.adapt.diagnostics import AdaptationMonitor
from repro.adapt.extensions import BNNormSourceBlend, BNOptSelective
from repro.adapt.no_adapt import NoAdapt
from repro.adapt.state import BNState

#: the paper's three methods; extensions listed separately
METHOD_NAMES = ("no_adapt", "bn_norm", "bn_opt")
EXTENSION_METHOD_NAMES = ("bn_norm_blend", "bn_opt_selective")

_FACTORIES = {
    "no_adapt": NoAdapt,
    "bn_norm": BNNorm,
    "bn_opt": BNOpt,
    "bn_norm_blend": BNNormSourceBlend,
    "bn_opt_selective": BNOptSelective,
}


def build_method(name: str, **kwargs) -> AdaptationMethod:
    """Factory: build an adaptation method (paper or extension) by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown adaptation method {name!r}; choose from "
                       f"{METHOD_NAMES + EXTENSION_METHOD_NAMES}") from None
    return factory(**kwargs)


__all__ = [
    "AdaptationMethod",
    "NoAdapt",
    "BNNorm",
    "BNOpt",
    "AdaptationMonitor",
    "BNState",
    "BNNormSourceBlend",
    "BNOptSelective",
    "bn_layers",
    "bn_parameters",
    "configure_bn_only_grads",
    "build_method",
    "METHOD_NAMES",
    "EXTENSION_METHOD_NAMES",
]
