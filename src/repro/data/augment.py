"""AugMix-style data augmentation for robust offline pre-training.

The paper's robust models are trained with AugMix (Hendrycks et al. 2019):
each training image is passed through several randomly-sampled chains of
mild augmentation ops; the chains are mixed with Dirichlet weights, and the
mixture is blended with the original image using a Beta-sampled weight.
The augmentation ops deliberately *exclude* the CIFAR-10-C corruption
families so that robustness to the test corruptions is emergent, matching
the benchmark protocol.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

# scipy is imported inside the functions that use it: importing
# repro.data must not load it (see repro.data.corruptions).


def _rotate(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    from scipy import ndimage
    angle = rng.uniform(-20, 20)
    return ndimage.rotate(image, angle, axes=(-2, -1), reshape=False,
                          order=1, mode="reflect")


def _shear(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    from scipy import ndimage
    shear = rng.uniform(-0.2, 0.2)
    matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, shear], [0.0, 0.0, 1.0]])
    return np.stack([
        ndimage.affine_transform(channel, matrix[1:, 1:], order=1, mode="reflect")
        for channel in image
    ])


def _translate(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    h, w = image.shape[-2:]
    dy = rng.integers(-h // 8, h // 8 + 1)
    dx = rng.integers(-w // 8, w // 8 + 1)
    return np.roll(image, (dy, dx), axis=(-2, -1))


def _posterize(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    bits = int(rng.integers(3, 6))
    levels = 2 ** bits
    return np.floor(image * (levels - 1) + 0.5) / (levels - 1)


def _solarize(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    threshold = rng.uniform(0.6, 0.95)
    return np.where(image >= threshold, 1.0 - image, image)


def _autocontrast(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    lo = image.min(axis=(-2, -1), keepdims=True)
    hi = image.max(axis=(-2, -1), keepdims=True)
    return (image - lo) / np.maximum(hi - lo, 1e-6)


def _equalize(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.empty_like(image)
    for c, channel in enumerate(image):
        values = np.clip(channel * 255, 0, 255).astype(np.int32)
        histogram = np.bincount(values.reshape(-1), minlength=256)
        cdf = histogram.cumsum().astype(np.float64)
        cdf = (cdf - cdf.min()) / max(cdf.max() - cdf.min(), 1)
        out[c] = cdf[values].astype(np.float32)
    return out


AUGMENTATION_OPS: List[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = [
    _rotate, _shear, _translate, _posterize, _solarize, _autocontrast, _equalize,
]


def augmix(image: np.ndarray, rng: np.random.Generator,
           width: int = 3, depth: int = -1, alpha: float = 1.0) -> np.ndarray:
    """AugMix a single CHW image.

    ``width`` parallel chains of 1-3 ops (``depth=-1`` samples the chain
    length), mixed with Dirichlet(alpha) weights and blended with the
    original via Beta(alpha, alpha).
    """
    mix_weights = rng.dirichlet([alpha] * width).astype(np.float32)
    blend = float(rng.beta(alpha, alpha))
    mixture = np.zeros_like(image)
    for chain_weight in mix_weights:
        augmented = image.copy()
        chain_depth = depth if depth > 0 else int(rng.integers(1, 4))
        for _ in range(chain_depth):
            op = AUGMENTATION_OPS[rng.integers(0, len(AUGMENTATION_OPS))]
            augmented = op(augmented, rng)
        mixture += chain_weight * np.clip(augmented, 0, 1)
    out = (1.0 - blend) * image + blend * mixture
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def augmix_batch(images: np.ndarray, seed: int = 0, **kwargs) -> np.ndarray:
    """AugMix every image in an (N, C, H, W) batch deterministically."""
    rng = np.random.default_rng(seed)
    return np.stack([augmix(image, rng, **kwargs) for image in images])
