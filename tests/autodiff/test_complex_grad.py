"""Gradchecks for complex-valued operations (the optics-critical path).

The engine stores complex gradients as ``dL/dRe + 1j*dL/dIm`` so these tests
perturb real and imaginary parts independently via the shared gradcheck
helper.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradcheck, ops
from repro.autodiff.fft import fft2, ifft2
from repro.autodiff.rng import spawn_rng


def make_complex_param(shape, seed, scale=1.0):
    rng = spawn_rng(seed)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Tensor(data, requires_grad=True)


def make_real_param(shape, seed, low=-2.0, high=2.0):
    rng = spawn_rng(seed)
    return Tensor(rng.uniform(low, high, shape), requires_grad=True)


class TestComplexArithmetic:
    def test_complex_mul(self):
        a = make_complex_param((3, 3), 100)
        b = make_complex_param((3, 3), 101)
        gradcheck(lambda: ops.sum(ops.abs2(a * b)), [a, b])

    def test_complex_add_mixed_with_real(self):
        z = make_complex_param((4,), 102)
        r = make_real_param((4,), 103)
        gradcheck(lambda: ops.sum(ops.abs2(z + r)), [z, r])

    def test_complex_div(self):
        a = make_complex_param((3,), 104)
        b = make_complex_param((3,), 105) + Tensor(np.full(3, 3.0 + 0j))
        gradcheck(lambda: ops.sum(ops.abs2(a / b)), [a])

    def test_complex_exp(self):
        z = make_complex_param((3,), 106, scale=0.5)
        gradcheck(lambda: ops.sum(ops.abs2(ops.exp(z))), [z])

    def test_complex_matmul(self):
        a = make_complex_param((2, 3), 107)
        b = make_complex_param((3, 2), 108)
        gradcheck(lambda: ops.sum(ops.abs2(a @ b)), [a, b])

    def test_complex_power(self):
        z = make_complex_param((3,), 109) + Tensor(np.full(3, 2.0 + 2j))
        gradcheck(lambda: ops.sum(ops.abs2(z ** 2)), [z])


class TestComplexStructureOps:
    def test_abs2(self):
        z = make_complex_param((3, 3), 110)
        gradcheck(lambda: ops.sum(ops.abs2(z)), [z])

    def test_abs2_on_real_input(self):
        r = make_real_param((4,), 111)
        gradcheck(lambda: ops.sum(ops.abs2(r)), [r])

    def test_absolute_complex(self):
        z = make_complex_param((3,), 112) + Tensor(np.full(3, 3.0 + 3j))
        gradcheck(lambda: ops.sum(ops.absolute(z)), [z])

    def test_absolute_complex_zero_is_safe(self):
        z = Tensor(np.zeros(2, dtype=complex), requires_grad=True)
        ops.sum(ops.absolute(z)).backward()
        assert np.allclose(z.grad, 0.0)

    def test_conj(self):
        z = make_complex_param((3,), 113)
        gradcheck(lambda: ops.sum(ops.abs2(ops.conj(z) + 1.0)), [z])

    def test_real_imag(self):
        z = make_complex_param((4,), 114)
        gradcheck(lambda: ops.sum(ops.real(z) ** 2 + 3.0 * ops.imag(z) ** 2),
                  [z])

    def test_make_complex(self):
        re = make_real_param((3,), 115)
        im = make_real_param((3,), 116)
        gradcheck(lambda: ops.sum(ops.abs2(ops.make_complex(re, im) * (1 + 2j))),
                  [re, im])

    def test_make_complex_rejects_complex_inputs(self):
        z = make_complex_param((2,), 117)
        with pytest.raises(TypeError):
            ops.make_complex(z, z)

    def test_phase_modulation_pattern(self):
        # The DONN modulation W = exp(i*phi) with real trainable phi.
        phi = make_real_param((4, 4), 119, low=0.0, high=2 * np.pi)
        field = make_complex_param((4, 4), 120)

        def loss():
            w = ops.exp(ops.make_complex(Tensor(np.zeros((4, 4))), phi))
            return ops.sum(ops.abs2(field.detach() * w + 0.3))

        gradcheck(loss, [phi])


class TestFFTGrads:
    def test_fft2_gradcheck(self):
        z = make_complex_param((4, 4), 121)
        gradcheck(lambda: ops.sum(ops.abs2(fft2(z))), [z])

    def test_ifft2_gradcheck(self):
        z = make_complex_param((4, 4), 122)
        gradcheck(lambda: ops.sum(ops.abs2(ifft2(z))), [z])

    def test_fft_chain_with_transfer_function(self):
        # The DiffMod propagation pattern: ifft2(fft2(x) * H).
        z = make_complex_param((4, 4), 123)
        rng = spawn_rng(124)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4)))
        gradcheck(lambda: ops.sum(ops.abs2(ifft2(fft2(z) * Tensor(h)))), [z])

    def test_fft_of_real_input(self):
        r = make_real_param((4, 4), 125)
        gradcheck(lambda: ops.sum(ops.abs2(fft2(r))), [r])


class TestFFTAdjointIdentities:
    @pytest.mark.parametrize("norm", ["backward", "ortho", "forward"])
    def test_fft2_adjoint_inner_product(self, norm):
        # For L = Re<y, Fx> the engine's gradient wrt x is exactly F^H y,
        # so the adjoint identity <Fx, y> == <x, F^H y> must hold.
        rng = spawn_rng(200)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))

        x_t = Tensor(x, requires_grad=True)
        loss = ops.sum(ops.real(ops.conj(Tensor(y)) * fft2(x_t, norm=norm)))
        loss.backward()
        adjoint_applied = x_t.grad  # should equal F^H y

        lhs = np.vdot(np.fft.fft2(x, norm=norm), y)  # <Fx, y>
        rhs = np.vdot(x, adjoint_applied)  # <x, F^H y>
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("norm", ["backward", "ortho", "forward"])
    def test_roundtrip_identity(self, norm):
        rng = spawn_rng(201)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        back = np.asarray(ifft2(fft2(Tensor(x), norm=norm), norm=norm).data)
        assert np.allclose(back, x)

    def test_ortho_norm_preserves_energy(self):
        rng = spawn_rng(202)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        fx = fft2(Tensor(x), norm="ortho").data
        assert np.sum(np.abs(fx) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2))

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            fft2(Tensor(np.zeros((2, 2), dtype=complex)), norm="weird")
