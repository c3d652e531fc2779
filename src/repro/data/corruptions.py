"""CIFAR-10-C corruption suite: 19 corruption types x 5 severity levels.

Re-implementation of the corruption families from Hendrycks & Dietterich's
CIFAR-10-C benchmark (noise, blur, weather, digital), operating on float32
CHW images in [0, 1].  Severity 1 is mildest, 5 most severe; the paper's
experiments use the 15 core types at severity 5; the four "extra" CIFAR-10-C
types (``speckle_noise``, ``gaussian_blur``, ``spatter``, ``saturate``) are
also provided for held-out shift scenarios.

Substitutions relative to the original benchmark (documented in DESIGN.md):
``frost`` and ``snow`` composite *procedural* textures instead of the
benchmark's photographic overlays, and ``jpeg_compression`` uses our own
8x8 DCT quantization codec (scipy.fft) rather than libjpeg.  All corruption
functions are deterministic given the ``seed`` argument.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

# scipy is imported inside the functions that use it: the serve daemon
# imports this module (for CORRUPTION_NAMES) but never corrupts a frame,
# and loading scipy would be most of the daemon's start-up time and
# ~20 MB of its resident memory.

SEVERITIES = (1, 2, 3, 4, 5)


def _check_severity(severity: int) -> int:
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be in {SEVERITIES}, got {severity}")
    return severity


def _clip(image: np.ndarray) -> np.ndarray:
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Noise family
# ----------------------------------------------------------------------
def gaussian_noise(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Additive white Gaussian noise."""
    scale = [0.04, 0.06, 0.08, 0.09, 0.10][_check_severity(severity) - 1]
    noise = _rng(seed).normal(0.0, scale, size=image.shape)
    return _clip(image + noise)


def shot_noise(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Poisson (photon-count) noise."""
    photons = [500, 250, 100, 75, 50][_check_severity(severity) - 1]
    sampled = _rng(seed).poisson(np.clip(image, 0, 1) * photons) / float(photons)
    return _clip(sampled)


def impulse_noise(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Salt-and-pepper noise on random pixels (all channels together)."""
    amount = [0.01, 0.02, 0.03, 0.05, 0.07][_check_severity(severity) - 1]
    rng = _rng(seed)
    out = image.copy()
    h, w = image.shape[-2:]
    num = int(amount * h * w)
    ys = rng.integers(0, h, size=num)
    xs = rng.integers(0, w, size=num)
    values = rng.integers(0, 2, size=num).astype(np.float32)
    out[:, ys, xs] = values[None, :]
    return _clip(out)


# ----------------------------------------------------------------------
# Blur family
# ----------------------------------------------------------------------
def _disk_kernel(radius: float) -> np.ndarray:
    size = max(int(2 * radius + 1), 3)
    if size % 2 == 0:
        size += 1
    coords = np.arange(size) - size // 2
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    kernel = (yy ** 2 + xx ** 2 <= radius ** 2).astype(np.float32)
    return kernel / kernel.sum()


def _convolve_channels(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    from scipy import ndimage
    return np.stack([ndimage.convolve(channel, kernel, mode="reflect")
                     for channel in image])


def defocus_blur(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Disk-kernel (lens defocus) blur."""
    radius = [0.8, 1.2, 1.6, 2.0, 2.5][_check_severity(severity) - 1]
    return _clip(_convolve_channels(image, _disk_kernel(radius)))


def glass_blur(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Local random pixel swaps followed by a mild Gaussian blur."""
    from scipy import ndimage
    sigma, max_delta, iterations = [
        (0.4, 1, 1), (0.5, 1, 1), (0.6, 1, 2), (0.7, 2, 1), (0.9, 2, 2),
    ][_check_severity(severity) - 1]
    rng = _rng(seed)
    out = np.stack([ndimage.gaussian_filter(c, sigma) for c in image])
    h, w = out.shape[-2:]
    for _ in range(iterations):
        dy = rng.integers(-max_delta, max_delta + 1, size=(h, w))
        dx = rng.integers(-max_delta, max_delta + 1, size=(h, w))
        ys = np.clip(np.arange(h)[:, None] + dy, 0, h - 1)
        xs = np.clip(np.arange(w)[None, :] + dx, 0, w - 1)
        out = out[:, ys, xs]
    out = np.stack([ndimage.gaussian_filter(c, sigma) for c in out])
    return _clip(out)


def motion_blur(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Linear motion blur along a random direction."""
    length = [3, 5, 7, 9, 11][_check_severity(severity) - 1]
    angle = float(_rng(seed).uniform(0, np.pi))
    kernel = np.zeros((length, length), dtype=np.float32)
    center = length // 2
    for t in np.linspace(-center, center, 2 * length):
        y = int(round(center + t * np.sin(angle)))
        x = int(round(center + t * np.cos(angle)))
        if 0 <= y < length and 0 <= x < length:
            kernel[y, x] = 1.0
    kernel /= kernel.sum()
    return _clip(_convolve_channels(image, kernel))


def _zoom_center(image: np.ndarray, factor: float) -> np.ndarray:
    """Zoom into the image center by ``factor`` >= 1, preserving shape."""
    from scipy import ndimage
    h, w = image.shape[-2:]
    zoomed = ndimage.zoom(image, (1.0, factor, factor), order=1)
    zh, zw = zoomed.shape[-2:]
    top = (zh - h) // 2
    left = (zw - w) // 2
    return zoomed[:, top:top + h, left:left + w]


def zoom_blur(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Average of progressively zoomed copies (radial zoom streaks)."""
    max_zoom, steps = [
        (1.06, 4), (1.11, 5), (1.16, 6), (1.21, 7), (1.26, 8),
    ][_check_severity(severity) - 1]
    factors = np.linspace(1.0, max_zoom, steps)
    acc = np.zeros_like(image)
    for factor in factors:
        acc += image if factor == 1.0 else _zoom_center(image, float(factor))
    return _clip(acc / len(factors))


# ----------------------------------------------------------------------
# Weather family
# ----------------------------------------------------------------------
def _plasma(shape, rng: np.random.Generator, smoothing: float) -> np.ndarray:
    """Smoothed uniform noise ('plasma') normalized to [0, 1]."""
    from scipy import ndimage
    noise = rng.uniform(size=shape)
    noise = ndimage.gaussian_filter(noise, smoothing)
    lo, hi = noise.min(), noise.max()
    return ((noise - lo) / max(hi - lo, 1e-8)).astype(np.float32)


def snow(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Procedural snow: sparse bright flecks, motion-streaked, composited."""
    from scipy import ndimage
    density, brightness, streak = [
        (0.03, 0.4, 2), (0.05, 0.5, 3), (0.08, 0.6, 3),
        (0.10, 0.7, 4), (0.14, 0.8, 5),
    ][_check_severity(severity) - 1]
    rng = _rng(seed)
    h, w = image.shape[-2:]
    flakes = (rng.uniform(size=(h, w)) < density).astype(np.float32)
    kernel = np.zeros((streak * 2 + 1, streak * 2 + 1), dtype=np.float32)
    for t in range(streak * 2 + 1):  # diagonal streak
        kernel[t, min(t, streak * 2)] = 1.0
    kernel /= kernel.sum()
    streaked = ndimage.convolve(flakes, kernel, mode="constant")
    layer = np.clip(streaked * 3.0, 0, 1) * brightness
    # Whiten the scene slightly, then add the flake layer on all channels.
    washed = image * (1.0 - 0.3 * brightness) + 0.3 * brightness
    return _clip(washed + layer[None])


def frost(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Procedural frost: crystalline high-contrast plasma overlay."""
    coverage, opacity = [
        (0.25, 0.25), (0.35, 0.32), (0.45, 0.38), (0.55, 0.45), (0.65, 0.55),
    ][_check_severity(severity) - 1]
    rng = _rng(seed)
    h, w = image.shape[-2:]
    texture = _plasma((h, w), rng, smoothing=1.2)
    crystals = np.clip((texture - (1.0 - coverage)) / coverage, 0, 1)
    crystals = crystals ** 0.7  # sharpen crystal edges
    frost_color = np.array([0.9, 0.95, 1.0], dtype=np.float32)
    overlay = crystals[None] * frost_color[:, None, None]
    return _clip(image * (1.0 - opacity * crystals[None]) + opacity * overlay)


def fog(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Fog: low-frequency haze that lifts luminance and crushes contrast."""
    intensity, smoothing = [
        (0.3, 3.0), (0.4, 2.8), (0.5, 2.5), (0.6, 2.2), (0.7, 2.0),
    ][_check_severity(severity) - 1]
    rng = _rng(seed)
    haze = _plasma(image.shape[-2:], rng, smoothing)
    haze = intensity * (0.6 + 0.4 * haze)
    return _clip(image * (1.0 - haze[None]) + haze[None])


def brightness(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Global brightness lift."""
    delta = [0.08, 0.14, 0.20, 0.26, 0.32][_check_severity(severity) - 1]
    return _clip(image + delta)


def contrast(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Contrast reduction about the per-image mean."""
    factor = [0.75, 0.6, 0.45, 0.3, 0.2][_check_severity(severity) - 1]
    mean = image.mean(axis=(-2, -1), keepdims=True)
    return _clip((image - mean) * factor + mean)


# ----------------------------------------------------------------------
# Digital family
# ----------------------------------------------------------------------
def elastic_transform(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Elastic warp via a smoothed random displacement field."""
    from scipy import ndimage
    alpha, sigma = [
        (1.5, 2.0), (2.0, 2.0), (2.5, 1.8), (3.0, 1.6), (3.5, 1.4),
    ][_check_severity(severity) - 1]
    rng = _rng(seed)
    h, w = image.shape[-2:]
    dy = ndimage.gaussian_filter(rng.uniform(-1, 1, size=(h, w)), sigma) * alpha
    dx = ndimage.gaussian_filter(rng.uniform(-1, 1, size=(h, w)), sigma) * alpha
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    coords = np.stack([yy + dy, xx + dx])
    warped = np.stack([
        ndimage.map_coordinates(channel, coords, order=1, mode="reflect")
        for channel in image
    ])
    return _clip(warped)


def pixelate(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Downsample then nearest-neighbour upsample."""
    from scipy import ndimage
    fraction = [0.75, 0.6, 0.5, 0.4, 0.3][_check_severity(severity) - 1]
    h, w = image.shape[-2:]
    small_h = max(int(h * fraction), 2)
    small_w = max(int(w * fraction), 2)
    small = ndimage.zoom(image, (1.0, small_h / h, small_w / w), order=1)
    restored = ndimage.zoom(small, (1.0, h / small.shape[1], w / small.shape[2]),
                            order=0)
    return _clip(restored[:, :h, :w])


# Luminance-style JPEG quantization table (IJG base), used for all channels.
_JPEG_QUANT_BASE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float32)


def _jpeg_quant_table(quality: int) -> np.ndarray:
    """IJG quality scaling of the base quantization table."""
    quality = int(np.clip(quality, 1, 100))
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    table = np.floor((_JPEG_QUANT_BASE * scale + 50.0) / 100.0)
    return np.clip(table, 1, 255).astype(np.float32)


def _jpeg_channel(channel: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantize one channel through blockwise 8x8 DCT (the JPEG core loop)."""
    from scipy import fft as scipy_fft
    h, w = channel.shape
    pad_h = (-h) % 8
    pad_w = (-w) % 8
    padded = np.pad(channel, ((0, pad_h), (0, pad_w)), mode="edge")
    ph, pw = padded.shape
    blocks = padded.reshape(ph // 8, 8, pw // 8, 8).transpose(0, 2, 1, 3)
    shifted = blocks * 255.0 - 128.0
    coefficients = scipy_fft.dctn(shifted, axes=(-2, -1), norm="ortho")
    quantized = np.round(coefficients / table) * table
    restored = scipy_fft.idctn(quantized, axes=(-2, -1), norm="ortho")
    pixels = (restored + 128.0) / 255.0
    out = pixels.transpose(0, 2, 1, 3).reshape(ph, pw)
    return out[:h, :w]


def jpeg_compression(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """JPEG artifacts via an 8x8 DCT quantization round trip."""
    quality = [80, 65, 50, 35, 20][_check_severity(severity) - 1]
    table = _jpeg_quant_table(quality)
    return _clip(np.stack([_jpeg_channel(c, table) for c in image]))


# ----------------------------------------------------------------------
# Extra CIFAR-10-C family (held-out shifts)
# ----------------------------------------------------------------------
def speckle_noise(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Multiplicative (signal-dependent) Gaussian noise."""
    scale = [0.06, 0.10, 0.14, 0.18, 0.22][_check_severity(severity) - 1]
    noise = _rng(seed).normal(0.0, scale, size=image.shape)
    return _clip(image + image * noise)


def gaussian_blur(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Isotropic Gaussian blur, per channel."""
    from scipy import ndimage
    sigma = [0.4, 0.6, 0.8, 1.1, 1.5][_check_severity(severity) - 1]
    return _clip(np.stack([ndimage.gaussian_filter(c, sigma) for c in image]))


def spatter(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Procedural spatter: plasma-thresholded liquid blobs composited on top.

    Mild severities splash translucent water droplets; harsher severities
    switch to opaque mud, following the CIFAR-10-C severity progression.
    """
    coverage, opacity, mud = [
        (0.12, 0.55, False), (0.18, 0.65, False), (0.22, 0.75, True),
        (0.30, 0.85, True), (0.38, 0.95, True),
    ][_check_severity(severity) - 1]
    rng = _rng(seed)
    h, w = image.shape[-2:]
    texture = _plasma((h, w), rng, smoothing=1.0)
    blobs = np.clip((texture - (1.0 - coverage)) / coverage, 0, 1)
    blobs = (blobs ** 0.5)  # fatten blob interiors, soften their rims
    color = np.array([0.25, 0.16, 0.08] if mud else [0.63, 0.62, 0.64],
                     dtype=np.float32)
    mask = opacity * blobs[None]
    return _clip(image * (1.0 - mask) + mask * color[:, None, None])


def saturate(image: np.ndarray, severity: int, seed: int = 0) -> np.ndarray:
    """Saturation shift: desaturate at mild severities, oversaturate at high."""
    factor, shift = [
        (0.3, 0.0), (0.15, 0.0), (2.0, 0.0), (5.0, 0.1), (20.0, 0.2),
    ][_check_severity(severity) - 1]
    gray = image.mean(axis=0, keepdims=True)
    return _clip(gray + (image - gray) * factor + shift)


# ----------------------------------------------------------------------
# Registry and batch API
# ----------------------------------------------------------------------
CorruptionFn = Callable[[np.ndarray, int, int], np.ndarray]

CORRUPTIONS: Dict[str, CorruptionFn] = {
    "gaussian_noise": gaussian_noise,
    "shot_noise": shot_noise,
    "impulse_noise": impulse_noise,
    "defocus_blur": defocus_blur,
    "glass_blur": glass_blur,
    "motion_blur": motion_blur,
    "zoom_blur": zoom_blur,
    "snow": snow,
    "frost": frost,
    "fog": fog,
    "brightness": brightness,
    "contrast": contrast,
    "elastic_transform": elastic_transform,
    "pixelate": pixelate,
    "jpeg_compression": jpeg_compression,
    "speckle_noise": speckle_noise,
    "gaussian_blur": gaussian_blur,
    "spatter": spatter,
    "saturate": saturate,
}

CORRUPTION_NAMES: List[str] = list(CORRUPTIONS)


def apply_corruption(image: np.ndarray, name: str, severity: int = 5,
                     seed: int = 0) -> np.ndarray:
    """Apply a named corruption to one CHW image."""
    if name not in CORRUPTIONS:
        raise KeyError(f"unknown corruption {name!r}; see CORRUPTION_NAMES")
    if image.ndim != 3:
        raise ValueError(f"expected CHW image, got shape {image.shape}")
    return CORRUPTIONS[name](image, severity, seed)


def corrupt_batch(images: np.ndarray, name: str, severity: int = 5,
                  seed: int = 0) -> np.ndarray:
    """Apply a named corruption to a batch (N, C, H, W), one seed per image."""
    if images.ndim != 4:
        raise ValueError(f"expected NCHW batch, got shape {images.shape}")
    out = np.empty_like(images)
    for i, image in enumerate(images):
        out[i] = apply_corruption(image, name, severity=severity, seed=seed + i)
    return out
