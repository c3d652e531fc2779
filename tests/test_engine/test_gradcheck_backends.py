"""Gradcheck for grouped/depthwise convolution on the reference backend.

The backend contract: NumpyBackend reproduces the seed numerics
bit-for-bit and matches finite differences.  These checks run in
float64 so the tolerance is the gradcheck default.
"""

import numpy as np
import pytest

from repro.engine import NumpyBackend, use_backend
from repro.tensor import Tensor, gradcheck
from repro.tensor.conv import conv2d


def f64(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True)


@pytest.fixture(params=["numpy"])
def backend(request):
    built = NumpyBackend()
    with use_backend(built):
        yield built
    built.close()


class TestConvGradcheckPerBackend:
    def test_standard_conv(self, backend):
        x = f64((4, 2, 5, 5), 0)
        w = f64((3, 2, 3, 3), 1)
        b = f64((3,), 2)
        gradcheck(lambda x, w, b: conv2d(x, w, b, stride=1, padding=1).sum(),
                  [x, w, b])

    def test_grouped_conv(self, backend):
        x = f64((4, 4, 5, 5), 3)
        w = f64((6, 2, 3, 3), 4)      # groups=2: 4 in, 6 out
        gradcheck(lambda x, w: conv2d(x, w, stride=1, padding=1,
                                      groups=2).sum(), [x, w])

    def test_grouped_strided_conv(self, backend):
        x = f64((4, 6, 6, 6), 5)
        w = f64((6, 2, 3, 3), 6)      # groups=3
        gradcheck(lambda x, w: conv2d(x, w, stride=2, padding=0,
                                      groups=3).sum(), [x, w])

    def test_depthwise_conv(self, backend):
        x = f64((4, 5, 5, 5), 7)
        w = f64((5, 1, 3, 3), 8)      # groups == channels
        gradcheck(lambda x, w: conv2d(x, w, stride=1, padding=1,
                                      groups=5).sum(), [x, w])
