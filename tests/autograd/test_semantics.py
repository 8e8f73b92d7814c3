"""Autograd engine semantics: accumulation, dtype, graph reuse edge cases."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad


class TestGradAccumulation:
    def test_two_backwards_accumulate(self, rng):
        """Like PyTorch: without zero_grad, a second backward adds in."""
        a = Tensor(rng.normal(size=3), requires_grad=True)
        (a * 2.0).sum().backward()
        first = a.grad.copy()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * first)

    def test_zero_grad_resets(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, 3.0)

    def test_explicit_upstream_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = a * 2.0
        g = rng.normal(size=(2, 2))
        out.backward(g)
        np.testing.assert_allclose(a.grad, 2.0 * g)

    def test_tensor_upstream_gradient(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        (a * 1.0).backward(Tensor(np.ones(3)))
        np.testing.assert_allclose(a.grad, 1.0)


class TestGraphStructure:
    def test_shared_subexpression_counted_once_per_path(self, rng):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0  # shared node
        out = (b + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_grad_not_tracked_through_data_mutation(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = (a * 2.0).sum()
        a.data[0] = 100.0  # mutate after forward: backward uses stale capture
        out.backward()
        # gradient of 2*a w.r.t. a is 2 regardless of current value
        np.testing.assert_allclose(a.grad, [2.0])

    def test_constant_branch_contributes_no_grad(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        c = Tensor(rng.normal(size=3))  # no grad
        ((a + c) * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(a.grad, c.data)


class TestNoGradInterplay:
    def test_ops_inside_no_grad_are_constants_outside(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        with no_grad():
            frozen = a * 2.0
        out = (a * frozen).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, frozen.data)  # only the live path

    def test_backward_of_pretaped_graph_after_no_grad(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        out = (a * 3.0).sum()
        with no_grad():
            pass
        out.backward()
        np.testing.assert_allclose(a.grad, 3.0)


class TestDtype:
    def test_float64_end_to_end(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        assert a.dtype == np.float64
        (a * a).sum().backward()
        assert a.grad.dtype == np.float64

    def test_int_input_promoted(self):
        a = Tensor([1, 2, 3])
        assert a.dtype == np.float32
