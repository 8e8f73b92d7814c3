"""Elementwise/matmul autograd correctness (gradcheck against finite differences)."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck


def t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestArithmetic:
    def test_add(self, rng):
        a, b = t(rng, 3, 4), t(rng, 3, 4)
        assert gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_broadcast_row(self, rng):
        a, b = t(rng, 3, 4), t(rng, 4)
        assert gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_broadcast_scalar_tensor(self, rng):
        a, b = t(rng, 3, 4), Tensor(np.float64(2.5), requires_grad=True)
        assert gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_python_scalar(self, rng):
        a = t(rng, 3)
        out = a + 1.5
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, np.ones(3))

    def test_radd(self, rng):
        a = t(rng, 3)
        out = 1.5 + a
        np.testing.assert_allclose(out.data, a.data + 1.5)

    def test_sub(self, rng):
        a, b = t(rng, 2, 5), t(rng, 2, 5)
        assert gradcheck(lambda a, b: (a - b).sum(), [a, b])

    def test_rsub(self, rng):
        a = t(rng, 3)
        out = 1.0 - a
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, -np.ones(3))

    def test_neg(self, rng):
        a = t(rng, 4)
        assert gradcheck(lambda a: (-a).sum(), [a])

    def test_mul(self, rng):
        a, b = t(rng, 3, 3), t(rng, 3, 3)
        assert gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_mul_broadcast_col(self, rng):
        a, b = t(rng, 3, 4), t(rng, 3, 1)
        assert gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = t(rng, 3, 3)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        assert gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_rtruediv(self, rng):
        b = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda b: (1.0 / b).sum(), [b])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        assert gradcheck(lambda a: (a**3).sum(), [a])

    def test_pow_rejects_tensor_exponent(self, rng):
        a = t(rng, 2)
        with pytest.raises(TypeError):
            a ** t(rng, 2)

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        assert gradcheck(lambda a: a.sqrt().sum(), [a], atol=1e-4)


class TestMatmul:
    def test_matmul_2d(self, rng):
        a, b = t(rng, 3, 4), t(rng, 4, 5)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_vector_rhs(self, rng):
        a, b = t(rng, 3, 4), t(rng, 4)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_vector_lhs(self, rng):
        a, b = t(rng, 4), t(rng, 4, 3)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_values(self, rng):
        a, b = t(rng, 2, 3), t(rng, 3, 2)
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)


class TestNonlinearities:
    def test_relu(self, rng):
        a = Tensor(rng.normal(size=(4, 4)) + 0.05, requires_grad=True)
        assert gradcheck(lambda a: a.relu().sum(), [a])

    def test_relu_zero_region(self):
        a = Tensor(np.array([-1.0, 2.0, -3.0]), requires_grad=True)
        out = a.relu()
        out.backward(np.ones(3))
        np.testing.assert_allclose(out.data, [0, 2, 0])
        np.testing.assert_allclose(a.grad, [0, 1, 0])

    def test_exp(self, rng):
        a = t(rng, 3, 3)
        assert gradcheck(lambda a: a.exp().sum(), [a], atol=1e-4)

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, size=(3, 3)), requires_grad=True)
        assert gradcheck(lambda a: a.log().sum(), [a])

    def test_tanh(self, rng):
        a = t(rng, 5)
        assert gradcheck(lambda a: a.tanh().sum(), [a])

    def test_sigmoid(self, rng):
        a = t(rng, 5)
        assert gradcheck(lambda a: a.sigmoid().sum(), [a])

    def test_softmax_rows_sum_to_one(self, rng):
        a = t(rng, 4, 7)
        s = a.softmax(axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_softmax_grad(self, rng):
        a = t(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 5)))
        assert gradcheck(lambda a: (a.softmax(axis=1) * w).sum(), [a], atol=1e-4)


class TestGraph:
    def test_reused_tensor_accumulates_grad(self, rng):
        a = t(rng, 3)
        out = (a * a).sum() + (a * 2.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 2.0)

    def test_diamond_graph(self, rng):
        a = t(rng, 3)
        b = a * 2.0
        c = a + 1.0
        out = (b * c).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2 * (a.data + 1.0) + 2 * a.data)

    def test_backward_requires_scalar_or_grad(self, rng):
        a = t(rng, 3)
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_deep_chain(self, rng):
        a = t(rng, 4)
        x = a
        for _ in range(50):
            x = x * 1.01 + 0.001
        x.sum().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 1.01**50), rtol=1e-10)

    def test_zero_grad(self, rng):
        a = t(rng, 3)
        (a * 2.0).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None
