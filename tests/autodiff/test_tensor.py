"""Tests of the Tensor container and backward-pass machinery."""

import numpy as np
import pytest

from repro.autodiff import Tensor, as_tensor, is_grad_enabled, no_grad
from repro.autodiff import gradcheck, ops


class TestConstruction:
    def test_wraps_array_without_copy_semantics(self):
        data = np.arange(6.0).reshape(2, 3)
        t = Tensor(data)
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert not t.requires_grad
        assert t.grad is None

    def test_from_python_scalars_and_lists(self):
        assert Tensor(3.0).shape == ()
        assert Tensor([1.0, 2.0]).shape == (2,)
        assert Tensor([[1, 2], [3, 4]]).dtype == np.dtype(np.int64)

    def test_from_tensor_shares_semantics(self):
        base = Tensor([1.0, 2.0])
        again = Tensor(base)
        assert np.array_equal(again.data, base.data)

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_complex_detection(self):
        assert Tensor(np.array([1 + 2j])).is_complex
        assert not Tensor(np.array([1.0])).is_complex

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_repr_mentions_grad_flag(self):
        t = Tensor([1.0], requires_grad=True)
        assert "requires_grad=True" in repr(t)


class TestBackwardBasics:
    def test_scalar_backward_seeds_one(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_with_explicit_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_seed_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 1.0
        with pytest.raises(ValueError):
            y.backward(np.zeros(3))

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(1.0)
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert x.grad == pytest.approx(8.0)

    def test_zero_grad_resets(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None


class TestGraphStructure:
    def test_diamond_graph_accumulates_once_per_path(self):
        # L = (x + x) * (x * 3) = 6 x^2, dL/dx = 12 x.
        x = Tensor(2.0, requires_grad=True)
        a = x + x
        b = x * 3.0
        loss = a * b
        loss.backward()
        assert x.grad == pytest.approx(24.0)

    def test_reused_intermediate_node(self):
        # y = x^2 used twice: L = y + y*y => dL/dx = 2x + 4x^3.
        x = Tensor(1.5, requires_grad=True)
        y = x * x
        loss = y + y * y
        loss.backward()
        assert x.grad == pytest.approx(2 * 1.5 + 4 * 1.5 ** 3)

    def test_deep_chain_does_not_recurse(self):
        # 5000-node chain exceeds default recursion limits if implemented
        # recursively.
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_leaf_flag(self):
        x = Tensor(1.0, requires_grad=True)
        y = x + 1.0
        assert x.is_leaf
        assert not y.is_leaf


class TestGraphRelease:
    """``backward`` keeps ``.grad`` on leaves only and releases the graph
    it ran; reaching a released node again is an error, never a silent
    stop."""

    def test_intermediates_hold_no_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * x
        loss = ops.sum(y * 3.0)
        loss.backward()
        assert y.grad is None and loss.grad is None
        assert np.allclose(x.grad, 6.0 * x.data)
        # Released, a node stays a non-leaf: it never starts collecting.
        assert not y.is_leaf and y.requires_grad

    def test_second_backward_on_the_same_root_raises(self):
        x = Tensor(1.5, requires_grad=True)
        y = x * x
        y.backward()
        with pytest.raises(RuntimeError, match="released"):
            y.backward()
        assert x.grad == pytest.approx(3.0)  # the failed pass added nothing

    def test_second_root_over_a_shared_intermediate_raises(self):
        x = Tensor(1.5, requires_grad=True)
        shared = x * x
        first = shared + 1.0
        second = shared * 2.0
        first.backward()
        with pytest.raises(RuntimeError, match="released"):
            second.backward()
        assert x.grad == pytest.approx(3.0)

    def test_leaf_root_keeps_working(self):
        x = Tensor(np.ones(2), requires_grad=True)
        x.backward(np.full(2, 2.0))
        x.backward(np.full(2, 3.0))
        assert np.allclose(x.grad, 5.0)

    def test_gradcheck_rejects_a_non_leaf_parameter(self):
        z = Tensor(np.ones(3), requires_grad=True)
        shifted = z + 1.0
        with pytest.raises(ValueError, match="#1 is not a leaf"):
            gradcheck(lambda: ops.sum(shifted * shifted), [z, shifted])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y.is_leaf

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_as_decorator(self):
        @no_grad()
        def fn(t):
            return t * 3.0

        result = fn(Tensor(1.0, requires_grad=True))
        assert not result.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x).detach()
        z = y * 3.0
        assert not z.requires_grad

    def test_clone_keeps_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = x.clone() * 3.0
        y.backward()
        assert x.grad == pytest.approx(3.0)


class TestBroadcastingGradients:
    def test_broadcast_scalar_against_matrix(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        loss = ops.sum(a * b)
        loss.backward()
        assert a.grad == pytest.approx(12.0)
        assert np.allclose(b.grad, 2.0)

    def test_broadcast_row_vector(self):
        row = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        mat = Tensor(np.ones((4, 3)), requires_grad=True)
        loss = ops.sum(row + mat)
        loss.backward()
        assert row.grad.shape == (1, 3)
        assert np.allclose(row.grad, 4.0)
        assert mat.grad.shape == (4, 3)

    def test_broadcast_with_leading_axes(self):
        col = Tensor(np.ones(5), requires_grad=True)
        batch = Tensor(np.ones((2, 3, 5)), requires_grad=True)
        loss = ops.sum(col * batch)
        loss.backward()
        assert col.grad.shape == (5,)
        assert np.allclose(col.grad, 6.0)

    def test_complex_grad_realified_for_real_parent(self):
        phase = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        field = ops.exp(ops.make_complex(Tensor(np.zeros(2)), phase))
        loss = ops.sum(ops.abs2(field + 1.0))
        loss.backward()
        assert phase.grad.dtype.kind == "f"
