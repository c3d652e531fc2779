"""Reference backend: single-threaded numpy with workspace reuse.

Convolution is lowered to one explicit im2col gather plus one batched
``np.matmul`` per direction, over the stacked per-group operands

- forward:     ``(g, N·Ho·Wo, K) @ (g, K, Co/g)``
- input grad:  ``(g, N·Ho·Wo, Co/g) @ (g, Co/g, K)``, then col2im
- weight grad: ``(g, K, N·Ho·Wo) @ (g, N·Ho·Wo, Co/g)``

with ``K = Ci/g·kh·kw`` ordered (channel, tap row, tap column).  These
are the exact matmuls numpy's ``einsum(optimize=True)`` runs for the
contractions this module used to spell as einsum strings, with the same
operand order, shapes and memory layouts, so the numerics are
bit-for-bit those of the einsum kernels; a contraction of length one is
a broadcast multiply, as einsum runs it (the depthwise input grad).
(numpy releases whose einsum predates its matmul route sum in another
order; there the two agree to float32 rounding.)  What the lowering
drops is einsum's scratch traffic: it permuted and copied the strided
im2col view twice before its single matmul, where this gathers it once,
tap by tap, into a :class:`~repro.engine.arena.WorkspaceArena` buffer.

Output-layout contract: every result comes back in the memory order
einsum returned it — the forward output is the matmul's
``(g, N, Ho, Wo, Co/g)`` block viewed as NCHW (NHWC in memory for
``groups=1``), the weight gradient likewise.  Batch-norm statistics,
global pooling and the BN backward reduce in memory order, so a layout
change alone would move their rounding and, through them, a whole
adaptation stream.  The elementwise kernels (``relu``, the ``centered``
result of ``batchnorm_stats``) keep their input's memory order.

The padded input of a channels-last activation is an NHWC workspace
viewed as NCHW (:meth:`~repro.engine.base.Backend.pad_input`).  The
im2col operand does not change with it: :func:`_patch_layout` lays the
operand out from the patch view's strides as einsum would, and where
the window and the output span more than one pixel on each axis, the
patch blocks interleave in memory from either workspace, so both give
the C-order operand and the matmuls see the same bytes.  Elsewhere (a
1x1 or 1-D window, a one-pixel output row or column) the two layouts
can differ, and ``pad_input`` keeps the C-order workspace.

Scratch memory comes from the arena: the padded-input copy, the im2col
patches of the forward pass, and one backward workspace that holds the
weight-gradient patches and then the column gradient that col2im reads
through a view.  Each is released before the kernel that drew it
returns (the padded input once its autograd closure has run).
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np

from repro.engine.base import Backend


def im2col_view(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Zero-copy strided view of shape (N, C, kh, kw, Ho, Wo) over ``x``."""
    n, c, h, w = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    sn, sc, sh_, sw_ = x.strides
    shape = (n, c, kh, kw, ho, wo)
    strides = (sn, sc, sh_, sw_, sh_ * sh, sw_ * sw)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def col2im(cols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
           sh: int, sw: int) -> np.ndarray:
    """Scatter-add a (..., kh, kw, Ho, Wo) gradient back to a C-ordered
    ``x_shape`` (..., H, W); the leading axes of ``cols`` and ``x_shape``
    match.

    The sum runs in an accumulator laid out like one tap of ``cols``, so
    each tap's add reads ``cols`` in its own memory order, and is copied
    to C order at the end.  Every element still adds its taps to +0.0
    in (row, column) order, so the result does not depend on the layout.
    """
    ho = cols.shape[-2]
    wo = cols.shape[-1]
    dx = np.zeros_like(cols[..., 0, 0, :, :], shape=x_shape)
    for i in range(kh):
        h_stop = i + sh * ho
        for j in range(kw):
            w_stop = j + sw * wo
            dx[..., i:h_stop:sh, j:w_stop:sw] += cols[..., i, j, :, :]
    return np.ascontiguousarray(dx)


#: the (batch, rows, columns) axis blocks of a 7-axis im2col operand
_BLOCKS = ((0,), (1, 2, 3), (4, 5, 6))
#: the operand's axes as axes of the (n, g, c, i, j, y, x) patch view:
#: (g, n, y, x, c, i, j) with the taps last, else (g, c, i, j, n, y, x)
_OPERAND_AXES = {True: (1, 0, 5, 6, 2, 3, 4), False: (1, 2, 3, 4, 0, 5, 6)}


@functools.lru_cache(maxsize=256)
def _patch_layout(shape: Tuple[int, ...], strides: Tuple[int, ...],
                  taps_last: bool) -> tuple:
    """Where the im2col operand of a patch view of ``shape``/``strides``
    lives in its buffer, as numpy's einsum lays it out.

    einsum copies the permuted view in 'K' order (its non-unit axes
    sorted by stride, ties kept in place) and then reshapes to the
    fused ``(g, rows, columns)`` operand.  The reshape copies into C
    order unless that layout already keeps every block of fused axes
    contiguous and in order; then the operand is a view with the blocks
    in layout order (a transposed matrix, e.g. the weight-grad patches
    of an unpadded 1x1 conv over an NHWC-strided input).

    Returns the buffer's unfused shape and the transpose that views it
    axis for axis like the patch view, then the fused block sizes in
    memory order and the transpose that puts them in operand order.
    """
    axes = _OPERAND_AXES[taps_last]
    live = sorted((a for a in range(7) if shape[axes[a]] != 1),
                  key=lambda a: -abs(strides[axes[a]]))
    owner = {a: b for b, block in enumerate(_BLOCKS) for a in block}
    order = [owner[a] for i, a in enumerate(live)
             if i == 0 or owner[live[i - 1]] != owner[a]]
    order += [b for b in range(3) if b not in order]
    if live != [a for b in order for a in _BLOCKS[b]
                if shape[axes[a]] != 1]:
        order = [0, 1, 2]
    memory = [axes[a] for b in order for a in _BLOCKS[b]]
    sizes = [math.prod(shape[axes[a]] for a in _BLOCKS[b]) for b in order]
    return (tuple(shape[a] for a in memory),
            tuple(np.argsort(memory).tolist()), tuple(sizes),
            tuple(np.argsort(order).tolist()))


class NumpyBackend(Backend):
    """The default backend: the einsum kernels' exact numerics, lowered to
    im2col + matmul, plus the arena."""

    name = "numpy"

    # -- convolution ---------------------------------------------------
    def _im2col(self, xp: np.ndarray, kh: int, kw: int,
                stride: Tuple[int, int], groups: int, buf: np.ndarray,
                taps_last: bool) -> np.ndarray:
        """Gather the conv patches of ``xp`` into ``buf`` and return them
        as the ``(g, N·Ho·Wo, K)`` matrix operand — ``(g, K, N·Ho·Wo)``
        with ``taps_last=False`` — laid out as einsum lays it out."""
        view = im2col_view(xp, kh, kw, *stride)
        n, c, _, _, ho, wo = view.shape
        taps = view.reshape(n, groups, c // groups, kh, kw, ho, wo)
        shape, to_taps, sizes, to_operand = _patch_layout(
            taps.shape, taps.strides, taps_last)
        dst = buf.reshape(shape).transpose(to_taps)
        for i in range(kh):
            for j in range(kw):
                dst[:, :, :, i, j] = taps[:, :, :, i, j]
        return buf.reshape(sizes).transpose(to_operand)

    def conv2d_forward(self, xp: np.ndarray, weight: np.ndarray,
                       stride: Tuple[int, int], groups: int) -> np.ndarray:
        sh, sw = stride
        n, _, h, w = xp.shape
        co, cig, kh, kw = weight.shape
        ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
        g, cog, k = groups, co // groups, cig * kh * kw
        if k == 1:
            # einsum multiplies a length-one contraction in output order
            taps = im2col_view(xp, 1, 1, sh, sw).reshape(n, g, 1, ho, wo)
            out = taps * weight.reshape(1, g, cog, 1, 1)
            return out.reshape(n, co, ho, wo)
        buf = self.arena.acquire((g * n * ho * wo * k,), xp.dtype)
        cols = self._im2col(xp, kh, kw, stride, g, buf, taps_last=True)
        out = np.matmul(cols, weight.reshape(g, cog, k).transpose(0, 2, 1))
        self.arena.release(buf)
        return (out.reshape(g, n, ho, wo, cog).transpose(1, 0, 4, 2, 3)
                .reshape(n, co, ho, wo))

    def conv2d_backward(self, grad: np.ndarray, xp: np.ndarray,
                        weight: np.ndarray, stride: Tuple[int, int],
                        groups: int, need_input_grad: bool,
                        need_weight_grad: bool
                        ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        sh, sw = stride
        n, c, h, w = xp.shape
        co, cig, kh, kw = weight.shape
        ho, wo = grad.shape[-2:]
        g, cog, k, m = groups, co // groups, cig * kh * kw, n * ho * wo
        # (g, N·Ho·Wo, Co/g): a view when the grad's layout allows,
        # otherwise the C-order copy einsum makes
        gm = (grad.reshape(n, g, cog, ho, wo).transpose(1, 0, 3, 4, 2)
              .reshape(g, m, cog))
        # One workspace serves both directions: the weight-grad patches,
        # then the column gradient that col2im consumes.
        buf = self.arena.acquire((g * m * k,), grad.dtype)
        dw = dxp = None
        if need_weight_grad and m == 1:
            # einsum multiplies a length-one contraction in output order
            taps = im2col_view(xp, kh, kw, sh, sw).reshape(g, 1, cig, kh, kw)
            dw = (taps * gm.reshape(g, cog, 1, 1, 1)).reshape(co, cig, kh, kw)
        elif need_weight_grad:
            patches = self._im2col(xp, kh, kw, stride, g, buf, taps_last=False)
            dw = (np.matmul(patches, gm).reshape(g, cig, kh, kw, cog)
                  .transpose(0, 4, 1, 2, 3).reshape(co, cig, kh, kw))
        if need_input_grad:
            if cog == 1:
                # depthwise: einsum's broadcast multiply.  It is elementwise,
                # so it may write tap-major, the order col2im reads fastest.
                dcols = np.multiply(gm, weight.reshape(g, 1, k),
                                    out=buf.reshape(g, k, m).transpose(0, 2, 1))
            else:
                dcols = np.matmul(gm, weight.reshape(g, cog, k),
                                  out=buf.reshape(g, m, k))
            dcols = (dcols.reshape(g, n, ho, wo, cig, kh, kw)
                     .transpose(1, 0, 4, 5, 6, 2, 3))
            dxp = col2im(dcols, (n, g, cig, h, w), kh, kw, sh, sw
                         ).reshape(n, c, h, w)
        self.arena.release(buf)
        return dxp, dw

    # -- dense ---------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    # -- batch norm ----------------------------------------------------
    def batchnorm_stats(self, x: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # numpy's own _mean/_var sequence, so the results are byte-equal
        # to x.mean(axes), x.var(axes) and x - mean: the sums reduce x
        # (and the squares, laid out like x) in memory order, and divide
        # by the count as an intp, as numpy does.  The mean and x - mean
        # are computed once rather than once per statistic.
        axes = (0, 2, 3)
        count = np.intp(x.shape[0] * x.shape[2] * x.shape[3])
        mean = np.add.reduce(x, axis=axes, keepdims=True)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        centered = x - mean
        var = np.add.reduce(centered * centered, axis=axes)
        np.true_divide(var, count, out=var, casting="unsafe")
        return mean.reshape(x.shape[1]), var, centered

    # -- activations ---------------------------------------------------
    def relu(self, x: np.ndarray) -> np.ndarray:
        # fmax maps NaN to 0 (where NaN > 0 is false); adding +0 turns
        # the -0.0 that fmax may pass through into +0.0
        out = np.fmax(x, 0)
        out += 0
        return out

    # -- pooling -------------------------------------------------------
    def max_pool2d_forward(self, x: np.ndarray, kernel: Tuple[int, int],
                           stride: Tuple[int, int]
                           ) -> Tuple[np.ndarray, np.ndarray]:
        kh, kw = kernel
        sh, sw = stride
        view = im2col_view(x, kh, kw, sh, sw)
        n, c, _, _, ho, wo = view.shape
        flat = view.reshape(n, c, kh * kw, ho, wo)
        arg = flat.argmax(axis=2)
        out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
        return out, arg

    def max_pool2d_backward(self, grad: np.ndarray, arg: np.ndarray,
                            x_shape: Tuple[int, ...], kernel: Tuple[int, int],
                            stride: Tuple[int, int]) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        n, c, ho, wo = grad.shape
        dflat = self.arena.acquire_zeros((n, c, kh * kw, ho, wo), grad.dtype)
        np.put_along_axis(dflat, arg[:, :, None], grad[:, :, None], axis=2)
        dx = col2im(dflat.reshape(n, c, kh, kw, ho, wo), x_shape,
                    kh, kw, sh, sw)
        self.arena.release(dflat)
        return dx

    def avg_pool2d_forward(self, x: np.ndarray, kernel: Tuple[int, int],
                           stride: Tuple[int, int]) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        return im2col_view(x, kh, kw, sh, sw).mean(axis=(2, 3))

    def avg_pool2d_backward(self, grad: np.ndarray, x_shape: Tuple[int, ...],
                            kernel: Tuple[int, int],
                            stride: Tuple[int, int]) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        n, c, ho, wo = grad.shape
        scale = 1.0 / (kh * kw)
        dcols = np.broadcast_to((grad * scale)[:, :, None, None],
                                (n, c, kh, kw, ho, wo)).astype(grad.dtype)
        return col2im(np.ascontiguousarray(dcols), x_shape, kh, kw, sh, sw)
