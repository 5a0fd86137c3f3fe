import math

import numpy as np
import pytest

from dmlseg import losses
from dmlseg.errors import ConfigError
from dmlseg.gt_gen import IGNORE
from dmlseg.tensor import Tensor, record

from reference import fd_grad, grad_mismatch, multilabel_nll_ref, softmax_nll_ref


class TestMultilabelNll:
    def test_zero_logits_is_ln2(self):
        m = Tensor(np.zeros((2, 3, 4, 4)))
        y = np.random.default_rng(0).integers(0, 2, size=(2, 3, 4, 4))
        assert losses.multilabel_nll(m, y).item() == pytest.approx(math.log(2), abs=1e-6)

    def test_saturated_correct_is_tiny(self, check64):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=(1, 2, 3, 3))
        m = Tensor(np.where(y == 1, 40.0, -40.0))
        assert losses.multilabel_nll(m, y).item() < 1e-15

    def test_matches_scalar_reference(self, check64):
        rng = np.random.default_rng(2)
        m = Tensor(rng.normal(scale=3.0, size=(2, 3, 4, 4)))
        y = rng.integers(0, 2, size=(2, 3, 4, 4))
        got = losses.multilabel_nll(m, y).item()
        expect = multilabel_nll_ref(m.data, y)
        assert abs(got - expect) / abs(expect) < 1e-12

    def test_no_overflow_at_extreme_logits(self, check64):
        m = Tensor(np.array([1e4, -1e4, 0.0, 5.0]).reshape(1, 1, 1, 4))
        y = np.array([0, 1, 1, 1]).reshape(1, 1, 1, 4)
        value = losses.multilabel_nll(m, y).item()
        assert np.isfinite(value)

    def test_gradient_formula_and_fd(self, check64):
        rng = np.random.default_rng(3)
        m = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        y = rng.integers(0, 2, size=(1, 2, 3, 3))
        with record() as g:
            loss = losses.multilabel_nll(m, y)
        g.backward(loss)
        sig = 1.0 / (1.0 + np.exp(-m.data))
        np.testing.assert_allclose(m.grad, (sig - y) / m.data.size, rtol=1e-12)
        numeric = fd_grad(lambda: losses.multilabel_nll(m, y).item(), m.data)
        assert grad_mismatch(m.grad, numeric) <= 1e-6

    def test_batch_duplication_invariant(self, check64):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(2, 3, 4, 4))
        y = rng.integers(0, 2, size=(2, 3, 4, 4))
        single = losses.multilabel_nll(Tensor(m), y).item()
        double = losses.multilabel_nll(Tensor(np.concatenate([m, m])),
                                       np.concatenate([y, y])).item()
        assert abs(single - double) <= 1e-12

    def test_class_permutation_invariant(self, check64):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(1, 4, 3, 3))
        y = rng.integers(0, 2, size=(1, 4, 3, 3))
        perm = rng.permutation(4)
        a = losses.multilabel_nll(Tensor(m), y).item()
        b = losses.multilabel_nll(Tensor(m[:, perm]), y[:, perm]).item()
        assert abs(a - b) <= 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigError):
            losses.multilabel_nll(Tensor(np.zeros((1, 2, 3, 3))), np.zeros((1, 2, 3, 4)))


class TestSoftmaxNll:
    def test_zero_logits_is_lnK(self):
        p = Tensor(np.zeros((2, 4, 3, 3)))
        y = np.random.default_rng(0).integers(0, 4, size=(2, 3, 3)).astype(np.uint8)
        assert losses.softmax_nll(p, y).item() == pytest.approx(math.log(4), abs=1e-6)

    def test_saturated_correct_is_tiny(self, check64):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 3, size=(1, 4, 4)).astype(np.uint8)
        p = np.zeros((1, 3, 4, 4))
        np.put_along_axis(p, y[:, None].astype(np.int64), 40.0, axis=1)
        assert losses.softmax_nll(Tensor(p), y).item() < 1e-15

    def test_half_ignore_matches_reference(self, check64):
        rng = np.random.default_rng(2)
        p = Tensor(rng.normal(size=(2, 3, 4, 4)))
        y = rng.integers(0, 3, size=(2, 4, 4)).astype(np.uint8)
        y[:, :2, :] = IGNORE
        got = losses.softmax_nll(p, y).item()
        expect = softmax_nll_ref(p.data, y)
        assert abs(got - expect) / abs(expect) < 1e-12

    def test_random_matches_reference(self, check64):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(scale=2.0, size=(2, 5, 4, 4)))
        y = rng.integers(0, 5, size=(2, 4, 4)).astype(np.uint8)
        got = losses.softmax_nll(p, y).item()
        expect = softmax_nll_ref(p.data, y)
        assert abs(got - expect) / abs(expect) < 1e-12

    def test_all_ignore_warns_and_zeroes(self):
        p = Tensor(np.ones((1, 3, 2, 2)), requires_grad=True)
        y = np.full((1, 2, 2), IGNORE, dtype=np.uint8)
        with pytest.warns(UserWarning, match="no valid pixels"):
            loss = losses.softmax_nll(p, y)
        assert loss.item() == 0.0

    def test_gradient_fd_with_ignore(self, check64):
        rng = np.random.default_rng(4)
        p = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        y = rng.integers(0, 3, size=(1, 4, 4)).astype(np.uint8)
        y[0, 0, 0] = IGNORE
        with record() as g:
            loss = losses.softmax_nll(p, y)
        g.backward(loss)
        assert np.all(p.grad[0, :, 0, 0] == 0.0)
        numeric = fd_grad(lambda: losses.softmax_nll(p, y).item(), p.data)
        assert grad_mismatch(p.grad, numeric) <= 1e-6

    def test_batch_duplication_invariant(self, check64):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(2, 3, 4, 4))
        y = rng.integers(0, 3, size=(2, 4, 4)).astype(np.uint8)
        single = losses.softmax_nll(Tensor(p), y).item()
        double = losses.softmax_nll(Tensor(np.concatenate([p, p])),
                                    np.concatenate([y, y])).item()
        assert abs(single - double) <= 1e-12

    def test_class_permutation_invariant(self, check64):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(1, 4, 3, 3))
        y = rng.integers(0, 4, size=(1, 3, 3)).astype(np.uint8)
        perm = rng.permutation(4)
        inverse = np.argsort(perm)
        a = losses.softmax_nll(Tensor(p), y).item()
        b = losses.softmax_nll(Tensor(p[:, perm]), inverse[y].astype(np.uint8)).item()
        assert abs(a - b) <= 1e-12


class TestTotalObjective:
    def _scalars(self, *values):
        return [Tensor(np.full((1, 1, 1, 1), v)) for v in values]

    def test_lambda_zero(self):
        l_seg, a = self._scalars(1.5, 0.7)
        total, report = losses.total_objective(l_seg, [a], 0.0)
        assert total.item() == pytest.approx(1.5)
        assert report.total == pytest.approx(report.l_seg)

    def test_lambda_one_sums_all(self):
        l_seg, a, b, c = self._scalars(1.0, 0.25, 0.5, 0.125)
        total, report = losses.total_objective(l_seg, [a, b, c], 1.0)
        assert total.item() == pytest.approx(1.875)
        assert report.total == pytest.approx(report.l_seg + sum(report.l_mul))

    def test_single_level(self):
        l_seg, a = self._scalars(2.0, 0.5)
        total, _ = losses.total_objective(l_seg, [a], 0.5)
        assert total.item() == pytest.approx(2.25)

    def test_no_levels(self):
        (l_seg,) = self._scalars(0.75)
        total, report = losses.total_objective(l_seg, [], 1.0)
        assert total.item() == pytest.approx(0.75)
        assert report.l_mul == []

    def test_csv_round_trip_shape(self):
        report = losses.LossReport(l_seg=1.0, l_mul=[0.5, 0.25], total=1.75)
        assert losses.LossReport.csv_header(2) == "iter,l_seg,l_mul_1,l_mul_2,total"
        assert report.csv_row(7) == "7,1,0.5,0.25,1.75"
