import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwesim.statfit import (DegenerateDataError, DeviationDataset, digamma,
                            fit_gamma_mle, fit_rayleigh_mle, gamma_pdf,
                            kld_empirical, make_histogram, rayleigh_pdf)

mpmath = pytest.importorskip("mpmath")


def dataset(values, d_r=0.3, m=16):
    return DeviationDataset(samples=np.asarray(values, dtype=float), d_r=d_r, m=m)


class TestDataset:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dataset([1.0, -0.5])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            dataset([[1.0, 2.0]])

    def test_readonly(self):
        ds = dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            ds.samples[0] = 5.0
        assert ds.n == 2


class TestGammaPdf:
    def test_exponential_special_case(self):
        # k=1 is Exp(1/theta)
        assert gamma_pdf(0.0, 1.0, 2.0) == pytest.approx(0.5)
        assert gamma_pdf(3.0, 1.0, 2.0) == pytest.approx(0.5 * np.exp(-1.5))

    def test_against_mpmath(self):
        k, theta, x = 2.5, 1.3, 3.0
        expect = float(mpmath.power(x, k - 1) * mpmath.e**(-x / theta)
                       / (mpmath.gamma(k) * mpmath.power(theta, k)))
        assert gamma_pdf(x, k, theta) == pytest.approx(expect, rel=1e-12)

    def test_diverges_below_shape_one(self):
        with pytest.raises(ValueError):
            gamma_pdf(0.0, 0.5, 1.0)

    def test_zero_for_shape_above_one(self):
        assert gamma_pdf(0.0, 2.0, 1.0) == 0.0

    def test_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = float(rng.uniform(0.3, 8.0))
            theta = float(rng.uniform(0.2, 10.0))
            lo, hi = 1e-12, 200.0 * theta
            total = float(mpmath.quad(lambda t: gamma_pdf(float(t), k, theta),
                                      [lo, k * theta, hi]))
            expect = float(mpmath.gammainc(k, lo / theta, hi / theta,
                                           regularized=True))
            assert total == pytest.approx(expect, abs=1e-6)

    def test_vector_input(self):
        out = gamma_pdf(np.array([0.0, 1.0, 2.0]), 2.0, 1.0)
        np.testing.assert_allclose(out, [0.0, np.exp(-1.0), 2.0 * np.exp(-2.0)])


class TestRayleighPdf:
    def test_known_value(self):
        # mode at x = sigma, height exp(-1/2)/sigma
        s = 1.7
        assert rayleigh_pdf(s, s) == pytest.approx(np.exp(-0.5) / s)

    def test_normalization(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = float(rng.uniform(0.2, 10.0))
            total = float(mpmath.quad(lambda t: rayleigh_pdf(float(t), s),
                                      [0.0, s, 100.0 * s]))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            rayleigh_pdf(1.0, 0.0)


class TestDigamma:
    def test_against_mpmath_grid(self):
        for x in (0.01, 0.1, 0.5, 1.0, 1.4616, 2.0, 5.5, 6.0, 17.3, 400.0):
            assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), abs=1e-10)

    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            digamma(0.0)

    @given(st.floats(1e-3, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_recurrence_property(self, x):
        # psi(x+1) = psi(x) + 1/x
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-9)


class TestGammaMle:
    def test_parameter_recovery(self):
        rng = np.random.default_rng(12345)
        x = rng.gamma(shape=2.0, scale=3.0, size=100_000)
        fit = fit_gamma_mle(dataset(x))
        assert fit.k_hat == pytest.approx(2.0, rel=0.02)
        assert fit.theta_hat == pytest.approx(3.0, rel=0.02)

    def test_mean_identity(self):
        # the MLE always matches the sample mean: k * theta = mean(x)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.gamma(rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0), size=500)
            fit = fit_gamma_mle(dataset(x))
            assert fit.k_hat * fit.theta_hat == pytest.approx(float(np.mean(x)),
                                                              rel=1e-12)

    def test_score_residual(self):
        rng = np.random.default_rng(9)
        x = rng.gamma(1.7, 2.2, size=2000)
        fit = fit_gamma_mle(dataset(x))
        s = np.log(np.mean(x)) - np.mean(np.log(x))
        assert abs(np.log(fit.k_hat) - digamma(fit.k_hat) - s) <= 1e-10

    def test_likelihood_is_local_maximum(self):
        rng = np.random.default_rng(21)
        x = rng.gamma(2.5, 1.5, size=5000)
        fit = fit_gamma_mle(dataset(x))
        from pwesim.statfit import _gamma_loglik
        best = _gamma_loglik(x, fit.k_hat, fit.theta_hat)
        for dk in (-0.01, 0.01):
            for dt in (-0.01, 0.01):
                assert _gamma_loglik(x, fit.k_hat * (1 + dk),
                                     fit.theta_hat * (1 + dt)) < best

    def test_consistency(self):
        # estimation error shrinks as N grows
        errors = []
        for n in (100, 1000, 10_000, 100_000):
            rng = np.random.default_rng(555)
            x = rng.gamma(2.0, 3.0, size=n)
            fit = fit_gamma_mle(dataset(x))
            errors.append(abs(fit.k_hat - 2.0) + abs(fit.theta_hat - 3.0))
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.05

    def test_degenerate_constant(self):
        with pytest.raises(DegenerateDataError):
            fit_gamma_mle(dataset([2.0] * 50))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_gamma_mle(dataset([1.0]))

    def test_squares_past_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="too large"):
                fit_gamma_mle(dataset([0.0, 2.7e154]))

    def test_zero_samples_are_clamped(self):
        # a handful of exact zeros must not crash the fit
        rng = np.random.default_rng(31)
        x = np.concatenate([rng.gamma(2.0, 2.0, size=500), np.zeros(5)])
        fit = fit_gamma_mle(dataset(x))
        assert 0.0 < fit.k_hat < 10.0


class TestRayleighMle:
    def test_closed_form_example(self):
        # sqrt((9 + 16) / 4) = 2.5
        fit = fit_rayleigh_mle(dataset([3.0, 4.0]))
        assert fit.sigma_hat == pytest.approx(2.5, abs=1e-12)

    def test_parameter_recovery(self):
        rng = np.random.default_rng(77)
        x = rng.rayleigh(scale=2.0, size=100_000)
        fit = fit_rayleigh_mle(dataset(x))
        assert fit.sigma_hat == pytest.approx(2.0, rel=0.01)

    def test_all_zero(self):
        with pytest.raises(DegenerateDataError):
            fit_rayleigh_mle(dataset([0.0, 0.0]))

    def test_squares_past_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="too large"):
                fit_rayleigh_mle(dataset([0.0, 1.35e154]))

    def test_likelihood_is_maximum(self):
        rng = np.random.default_rng(13)
        x = rng.rayleigh(1.5, size=3000)
        ds = dataset(x)
        fit = fit_rayleigh_mle(ds)

        def loglik(sig):
            return float(np.sum(np.log(x / sig**2) - x**2 / (2 * sig**2)))

        for eps in (-0.01, 0.01):
            assert loglik(fit.sigma_hat * (1 + eps)) < fit.log_likelihood


class TestHistogram:
    def test_counts_against_bruteforce(self, rng):
        x = rng.uniform(0, 9.0, size=400)
        x[0] = 9.0   # pin the top edge
        ds = dataset(x)
        hist = make_histogram(ds, n_bins=6)
        top = 9.0
        width = top / 6
        for b in range(6):
            lo, hi = b * width, (b + 1) * width
            if b == 5:
                expect = int(np.sum((x >= lo) & (x <= hi)))
            else:
                expect = int(np.sum((x >= lo) & (x < hi)))
            assert hist.counts[b] == expect

    def test_density_normalizes(self, rng):
        ds = dataset(rng.gamma(2.0, 2.0, size=1000))
        hist = make_histogram(ds, n_bins=10)
        assert float(np.sum(hist.densities * hist.widths)) == pytest.approx(1.0)
        assert int(np.sum(hist.counts)) == ds.n

    def test_span(self, rng):
        ds = dataset(rng.uniform(1.0, 5.0, size=100))
        hist = make_histogram(ds, n_bins=4)
        assert hist.bin_edges[0] == 0.0
        assert hist.bin_edges[-1] == pytest.approx(float(np.max(ds.samples)))

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_histogram(dataset([1.0, 2.0]), n_bins=1)
        with pytest.raises(ValueError):
            make_histogram(dataset([0.0, 0.0]))


class TestKld:
    def test_self_divergence_near_zero(self, rng):
        # compare the histogram against its own step density
        ds = dataset(rng.gamma(2.0, 2.0, size=5000))
        hist = make_histogram(ds, n_bins=10)

        def step_pdf(x):
            b = np.searchsorted(hist.bin_edges, x, side="right") - 1
            return hist.densities[np.clip(b, 0, len(hist.densities) - 1)]

        assert kld_empirical(hist, step_pdf) <= 1e-9

    def test_non_negative_random_pairs(self, rng):
        for _ in range(200):
            ds = dataset(rng.gamma(rng.uniform(0.5, 5), rng.uniform(0.5, 5),
                                   size=200))
            k = float(rng.uniform(0.5, 5))
            theta = float(rng.uniform(0.5, 5))
            d = kld_empirical(make_histogram(ds), lambda x: gamma_pdf(x, k, theta))
            assert d >= 0.0

    def test_true_model_scores_low(self):
        rng = np.random.default_rng(101)
        ds = dataset(rng.gamma(2.0, 3.0, size=20_000))
        hist = make_histogram(ds)
        close = kld_empirical(hist, lambda x: gamma_pdf(x, 2.0, 3.0))
        far = kld_empirical(hist, lambda x: gamma_pdf(x, 6.0, 1.0))
        assert close <= 0.02
        assert far > close

    def test_rejects_negative_pdf(self, rng):
        ds = dataset(rng.uniform(0.1, 3.0, size=100))
        with pytest.raises(ValueError):
            kld_empirical(make_histogram(ds), lambda x: -1.0)
