"""Tests for the module system and optimizers."""

import numpy as np
import pytest

from repro.autodiff import Adam, Module, Parameter, Tensor, ops


class Affine(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 2)))
        self.bias = Parameter(np.zeros(2))

    def forward(self, x):
        return x @ self.weight + self.bias


class Stacked(Module):
    def __init__(self):
        super().__init__()
        self.first = Affine()
        self.second = Affine()

    def forward(self, x):
        return self.second(self.first(x))


class TestModule:
    def test_parameter_registration(self):
        m = Affine()
        names = dict(m.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_registration(self):
        m = Stacked()
        names = {name for name, _ in m.named_parameters()}
        assert names == {"first.weight", "first.bias",
                         "second.weight", "second.bias"}

    def test_zero_grad(self):
        m = Affine()
        out = ops.sum(m(Tensor(np.ones((3, 2)))))
        out.backward()
        assert m.weight.grad is not None
        m.zero_grad()
        assert m.weight.grad is None

    def test_forward_required(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestAdam:
    def test_quadratic_convergence(self):
        x = Parameter(np.array([5.0, -3.0, 2.0]))
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ops.sum(x * x).backward()
            opt.step()
        assert np.allclose(x.data, 0.0, atol=1e-4)

    def test_rosenbrock_progress(self):
        # Adam should make strong progress on the banana function.
        xy = Parameter(np.array([-1.0, 1.5]))

        def loss_fn():
            x, y = xy[0], xy[1]
            return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

        opt = Adam([xy], lr=0.05)
        start = loss_fn().item()
        for _ in range(1000):
            opt.zero_grad()
            loss_fn().backward()
            opt.step()
        # The banana valley is slow going; two orders of magnitude in 1000
        # steps demonstrates healthy optimization.
        assert loss_fn().item() < start * 1e-2

    def test_complex_parameter_support(self):
        # Minimize |z - (1+2j)|^2 over a complex parameter.
        z = Parameter(np.zeros(1, dtype=complex))
        target = 1.0 + 2.0j
        opt = Adam([z], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ops.sum(ops.abs2(z - Tensor(np.array([target])))).backward()
            opt.step()
        assert z.data[0] == pytest.approx(target, abs=1e-3)

    def test_skips_params_without_grad(self):
        x = Parameter(np.array([1.0]))
        y = Parameter(np.array([1.0]))
        opt = Adam([x, y], lr=0.1)
        opt.zero_grad()
        ops.sum(x * x).backward()
        opt.step()
        assert y.data[0] == pytest.approx(1.0)
        assert x.data[0] != 1.0

    def test_requires_grad_enforced(self):
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(2))], lr=0.1)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.0)
