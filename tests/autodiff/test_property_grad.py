"""Hypothesis property-based tests of the autodiff engine.

These check structural invariants (linearity of the backward pass, adjoint
consistency, convention round-trips) on randomly generated shapes and
values, complementing the example-based gradchecks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, gradcheck, ops
from repro.autodiff.fft import fft2, ifft2

FINITE = dict(allow_nan=False, allow_infinity=False, width=64)


def small_arrays(min_side=1, max_side=4, min_value=-3.0, max_value=3.0):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=3,
                               min_side=min_side, max_side=max_side),
        elements=st.floats(min_value=min_value, max_value=max_value, **FINITE),
    )


@settings(max_examples=25, deadline=None)
@given(small_arrays())
def test_sum_gradient_is_ones(data):
    x = Tensor(data, requires_grad=True)
    ops.sum(x).backward()
    assert np.allclose(x.grad, np.ones_like(data))


@settings(max_examples=25, deadline=None)
@given(small_arrays(), st.floats(min_value=-2.0, max_value=2.0, **FINITE))
def test_scalar_scaling_linearity(data, scale):
    # d(sum(c*x))/dx == c everywhere.
    x = Tensor(data, requires_grad=True)
    ops.sum(x * scale).backward()
    assert np.allclose(x.grad, scale)


@settings(max_examples=20, deadline=None)
@given(small_arrays(min_side=2))
def test_mul_gradcheck_random_shapes(data):
    x = Tensor(data, requires_grad=True)
    y = Tensor(np.cos(data))  # deterministic partner
    gradcheck(lambda: ops.sum(x * y * x), [x], rtol=1e-3, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_fft_energy_conservation_property(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fx = fft2(Tensor(x), norm="ortho").data
    assert np.isclose(np.sum(np.abs(fx) ** 2), np.sum(np.abs(x) ** 2))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_fft_ifft_gradient_roundtrip(n, seed):
    # L = sum |ifft(fft(z))|^2 = sum |z|^2 so grad must equal 2z.
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
               requires_grad=True)
    ops.sum(ops.abs2(ifft2(fft2(z)))).backward()
    assert np.allclose(z.grad, 2 * z.data, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(small_arrays(min_side=2))
def test_backward_additivity(data):
    # Gradient of f+g is grad f + grad g.
    def grad_of(builder):
        x = Tensor(data, requires_grad=True)
        builder(x).backward()
        return x.grad

    f = lambda x: ops.sum(x * x)  # noqa: E731
    g = lambda x: ops.sum(ops.sigmoid(x))  # noqa: E731
    combined = lambda x: ops.sum(x * x) + ops.sum(ops.sigmoid(x))  # noqa: E731
    assert np.allclose(grad_of(combined), grad_of(f) + grad_of(g), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(small_arrays())
def test_reshape_preserves_gradient_values(data):
    x = Tensor(data, requires_grad=True)
    flat = x.reshape(-1)
    ops.sum(flat * flat).backward()
    assert np.allclose(x.grad, 2 * data)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_matmul_vjp_against_numeric(n, m, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((n, m)), requires_grad=True)
    b = Tensor(rng.standard_normal((m, n)), requires_grad=True)
    gradcheck(lambda: ops.sum((a @ b) ** 2), [a, b], rtol=1e-3, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(small_arrays(min_side=2))
def test_detach_stops_gradient_flow(data):
    x = Tensor(data, requires_grad=True)
    y = ops.sum(x.detach() * x)
    y.backward()
    # Gradient only through the non-detached factor.
    assert np.allclose(x.grad, data)
