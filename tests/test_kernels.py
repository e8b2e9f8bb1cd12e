import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssgpfa import (
    ConfigError,
    NumericalError,
    ParameterError,
    SsgpfaModel,
    UnsupportedKernelError,
    add,
    brownian,
    cosine,
    discretize,
    matern32,
    model_from_dict,
    model_to_dict,
    multiply,
    parse_kernel,
    prior_covariance,
)
from ssgpfa.kernels import _leaf_values, _rebuild


def analytic_matern32(tau, lengthscale, variance):
    lam = math.sqrt(3.0) / lengthscale
    return variance * (1.0 + lam * tau) * math.exp(-lam * tau)


def analytic_cosine(tau, period, variance):
    return variance * math.cos(2.0 * math.pi * tau / period)


LAGS = np.linspace(0.0, 12.0, 20)


class TestMatern32:
    def test_transition_matrix_frozen(self):
        # lengthscale sqrt(3) gives lam=1, where expm has the closed form
        # e^-1 [[2, 1], [-1, 0]]
        k = matern32(lengthscale=math.sqrt(3.0))
        A = discretize(k, 1.0).A
        expected = math.exp(-1.0) * np.array([[2.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(A, expected, atol=1e-12)

    def test_stationary_covariance(self):
        k = matern32(lengthscale=2.0, variance=1.5)
        np.testing.assert_allclose(k.stationary_cov, np.diag([1.5, 1.5 * 3.0 / 4.0]))

    def test_prior_covariance_analytic(self):
        k = matern32(lengthscale=2.0, variance=1.5)
        assert prior_covariance(k, 0.7) == pytest.approx(1.3140704551026665, abs=1e-12)
        for tau in LAGS:
            assert prior_covariance(k, tau) == pytest.approx(
                analytic_matern32(tau, 2.0, 1.5), abs=1e-8)

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ParameterError):
            matern32(lengthscale=0.0)
        with pytest.raises(ParameterError):
            matern32(lengthscale=1.0, variance=-1.0)
        with pytest.raises(ParameterError):
            matern32(lengthscale=float("nan"))

    @pytest.mark.parametrize("lengthscale, variance", [(1e-160, 1.0), (1e-5, 1e300)])
    def test_rejects_nonfinite_derived_constants(self, lengthscale, variance):
        # lam^2 overflows, then lam^2 * variance does
        with pytest.raises(ParameterError):
            matern32(lengthscale=lengthscale, variance=variance)


class TestCosine:
    def test_rejects_nonfinite_frequency(self):
        with pytest.raises(ParameterError):
            cosine(period=1e-320)

    def test_nonfinite_phase_raises(self):
        # w dt overflows: a typed error, not math.cos's ValueError
        with pytest.raises(NumericalError, match="phase"):
            discretize(cosine(period=1e-300), 1e10)

    def test_pure_rotation(self):
        k = cosine(period=2.0 * math.pi, variance=1.0)
        trans = discretize(k, 1.0)
        np.testing.assert_allclose(trans.A @ trans.A.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(trans.Q, np.zeros((2, 2)), atol=1e-14)

    def test_covariance_at_half_period(self):
        k = cosine(period=2.0 * math.pi, variance=2.0)
        assert prior_covariance(k, math.pi) == pytest.approx(-2.0, abs=1e-10)

    def test_prior_covariance_analytic(self):
        k = cosine(period=5.0, variance=0.7)
        for tau in LAGS:
            assert prior_covariance(k, tau) == pytest.approx(
                analytic_cosine(tau, 5.0, 0.7), abs=1e-8)


class TestBrownian:
    def test_variance_grows_linearly(self):
        k = brownian(diffusion=0.8)
        assert not k.stationary
        np.testing.assert_allclose(k.initial_cov, np.zeros((1, 1)))
        P = k.initial_cov.copy()
        trans = discretize(k, 5.0)
        P = trans.A @ P @ trans.A.T + trans.Q
        assert P[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_no_stationary_covariance(self):
        with pytest.raises(UnsupportedKernelError):
            prior_covariance(brownian(1.0), 1.0)


class TestAlgebra:
    def test_sum_covariance_adds(self):
        k1 = matern32(lengthscale=3.0, variance=0.5)
        k2 = cosine(period=7.0, variance=1.2)
        total = add(k1, k2)
        assert total.state_dim == 4
        for tau in LAGS:
            expected = analytic_matern32(tau, 3.0, 0.5) + analytic_cosine(tau, 7.0, 1.2)
            assert prior_covariance(total, tau) == pytest.approx(expected, abs=1e-8)

    def test_product_covariance_multiplies(self):
        k1 = matern32(lengthscale=3.0, variance=0.5)
        k2 = cosine(period=7.0, variance=1.2)
        prod = multiply(k1, k2)
        assert prod.state_dim == 4
        for tau in LAGS:
            expected = analytic_matern32(tau, 3.0, 0.5) * analytic_cosine(tau, 7.0, 1.2)
            assert prior_covariance(prod, tau) == pytest.approx(expected, abs=1e-8)

    def test_operator_sugar(self):
        k = matern32(2.0) + matern32(5.0) * cosine(3.0)
        assert k.state_dim == 2 + 4

    def test_product_with_nonstationary_rejected(self):
        with pytest.raises(UnsupportedKernelError):
            multiply(brownian(1.0), matern32(1.0))

    def test_sum_with_nonstationary_allowed(self):
        k = add(brownian(0.3), matern32(2.0))
        assert not k.stationary
        trans = discretize(k, 2.0)
        assert trans.A.shape == (3, 3)
        # block structure: brownian component stays decoupled
        assert trans.A[0, 1] == 0.0 and trans.A[1, 0] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    lengthscale=st.floats(0.2, 50.0),
    variance=st.floats(0.05, 5.0),
    dt1=st.floats(0.01, 8.0),
    dt2=st.floats(0.01, 8.0),
)
def test_transition_semigroup(lengthscale, variance, dt1, dt2):
    """A(a+b) = A(b) A(a) and Q(a+b) = A(b) Q(a) A(b)^T + Q(b)."""
    k = matern32(lengthscale, variance) + cosine(period=4.0, variance=0.3)
    t1 = discretize(k, dt1)
    t2 = discretize(k, dt2)
    t12 = discretize(k, dt1 + dt2)
    np.testing.assert_allclose(t12.A, t2.A @ t1.A, atol=1e-9, rtol=1e-7)
    np.testing.assert_allclose(
        t12.Q, t2.A @ t1.Q @ t2.A.T + t2.Q, atol=1e-9, rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    lengthscale=st.floats(0.2, 50.0),
    dt=st.floats(0.0, 20.0),
)
def test_process_noise_psd(lengthscale, dt):
    k = matern32(lengthscale) * cosine(period=9.0)
    Q = discretize(k, dt).Q
    eigs = np.linalg.eigvalsh((Q + Q.T) / 2.0)
    assert eigs.min() >= -1e-9


class TestDiscretize:
    def test_zero_step_is_identity(self):
        k = matern32(1.5)
        trans = discretize(k, 0.0)
        np.testing.assert_allclose(trans.A, np.eye(2))
        np.testing.assert_allclose(trans.Q, np.zeros((2, 2)))

    def test_negative_step_rejected(self):
        with pytest.raises(ParameterError):
            discretize(matern32(1.0), -0.5)


class TestParse:
    def test_round_trip_expression(self):
        k = matern32(2.5, 0.7) + matern32(10.0) * cosine(24.0, 1.3)
        rebuilt = parse_kernel(k.expression)
        assert rebuilt.expression == k.expression
        np.testing.assert_allclose(rebuilt.feedback, k.feedback)
        np.testing.assert_allclose(rebuilt.stationary_cov, k.stationary_cov)

    def test_parse_simple(self):
        k = parse_kernel("matern32(lengthscale=3.0, variance=2.0)")
        assert prior_covariance(k, 0.0) == pytest.approx(2.0)

    def test_parse_positional_and_precedence(self):
        k = parse_kernel("brownian(0.1) + matern32(5.0) * cosine(12.0)")
        assert k.state_dim == 1 + 4
        assert not k.stationary

    def test_parse_rejects_unknown_names(self):
        with pytest.raises(ConfigError):
            parse_kernel("rbf(1.0)")

    def test_parse_rejects_code(self):
        for bad in (
            "__import__('os')",
            "matern32(lengthscale=(lambda: 1)())",
            "matern32(1.0) - cosine(2.0)",
            "matern32(**{'lengthscale': 1.0})",
            "",
            "matern32(lengthscale='a')",
        ):
            with pytest.raises(ConfigError):
                parse_kernel(bad)

    def test_parse_rejects_bad_arity(self):
        with pytest.raises(ConfigError):
            parse_kernel("matern32(1.0, 2.0, 3.0)")

    def test_parse_negative_literal_rejected_by_domain(self):
        with pytest.raises(ParameterError):
            parse_kernel("matern32(-1.0)")


class TestValidation:
    def test_arrays_read_only(self):
        k = matern32(1.0)
        with pytest.raises(ValueError):
            k.feedback[0, 0] = 9.0

    def test_emission_shapes(self):
        k = matern32(1.0) + cosine(2.0)
        assert k.emission.shape == (4,)
        np.testing.assert_allclose(k.emission, [1.0, 0.0, 1.0, 0.0])


# --- kernel trees: one printer, one parser, one parameter vector -----------

_PARAM = st.floats(0.01, 1000.0)
_LEAVES = st.one_of(
    st.builds(matern32, _PARAM, _PARAM),
    st.builds(cosine, _PARAM, _PARAM),
    st.builds(brownian, _PARAM),
)


def _combine(args, max_product_dim=None):
    k1, k2, product = args
    if product and k1.stationary and k2.stationary and (
            max_product_dim is None or k1.state_dim * k2.state_dim <= max_product_dim):
        return multiply(k1, k2)
    return add(k1, k2)


def kernel_trees(depth=3, leaves=_LEAVES, max_product_dim=None):
    """Random trees at most ``depth`` operators deep; only stationary
    subtrees are multiplied, and with ``max_product_dim`` only into at
    most that many states."""
    if depth == 0:
        return leaves
    sub = kernel_trees(depth - 1, leaves, max_product_dim)
    return st.one_of(leaves, st.tuples(sub, sub, st.booleans()).map(
        lambda args: _combine(args, max_product_dim)))


def assert_same_kernel(a, b):
    assert a.expression == b.expression
    for name in ("feedback", "emission", "initial_cov"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.stationary == b.stationary
    if a.stationary:
        assert np.array_equal(a.stationary_cov, b.stationary_cov)


class TestKernelTree:
    @settings(max_examples=50, deadline=None)
    @given(k=kernel_trees())
    def test_parse_round_trip(self, k):
        assert_same_kernel(parse_kernel(k.expression), k)

    @settings(max_examples=50, deadline=None)
    @given(k=kernel_trees())
    def test_rebuild_round_trip(self, k):
        assert_same_kernel(_rebuild(k, iter(_leaf_values(k))), k)

    @settings(max_examples=30, deadline=None)
    @given(k1=kernel_trees(), k2=kernel_trees(), noise=_PARAM)
    def test_model_json_round_trip(self, k1, k2, noise):
        loading = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]])
        model = SsgpfaModel((k1, k2), loading, np.array([0.5, -1.0, 2.0]), noise)
        doc = model_to_dict(model)
        clone = model_from_dict(json.loads(json.dumps(doc)))
        assert model_to_dict(clone) == doc
        for a, b in zip(clone.kernels, model.kernels):
            assert_same_kernel(a, b)
        for name in ("loading", "offset", "noise"):
            assert np.array_equal(getattr(clone, name), getattr(model, name)), name

    def test_printer_output(self):
        a = matern32(2.0, 0.5)
        b = cosine(24.0)
        c = matern32(lengthscale=50.0)
        ea = "matern32(lengthscale=2.0, variance=0.5)"
        eb = "cosine(period=24.0, variance=1.0)"
        ec = "matern32(lengthscale=50.0, variance=1.0)"
        assert ((a + b) * c).expression == f"({ea} + {eb}) * {ec}"
        assert (a + b * c).expression == f"{ea} + {eb} * {ec}"
        assert (a * b * c).expression == f"{ea} * {eb} * {ec}"
        assert (a * (b * c)).expression == f"{ea} * ({eb} * {ec})"

    def test_leaf_values_in_tree_order(self):
        k = brownian(0.1) + matern32(3.0, 2.0) * cosine(period=9.0)
        assert _leaf_values(k) == [0.1, 3.0, 2.0, 9.0, 1.0]


# --- closed-form transitions ---------------------------------------------


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def _noise_rule(kernel, A, dt):
    """Q(dt) by the package's rules, from a given A."""
    if kernel.stationary:
        P = kernel.stationary_cov
        return P - A @ P @ A.T
    if kernel.parts is None:
        return np.array([[kernel.params["diffusion"] * dt]])
    Q = np.zeros_like(A)
    lo = 0
    for part in kernel.parts:
        hi = lo + part.state_dim
        Q[lo:hi, lo:hi] = _noise_rule(part, A[lo:hi, lo:hi], dt)
        lo = hi
    return Q


# Periods of at least 1e3 keep the rotations within 2 pi over the longest
# step: scipy's expm loses up to 1e-11 on rotations by tens of radians,
# where the closed form is exact.
_EXPM_LEAVES = st.one_of(
    st.builds(matern32, _log_uniform(1.0, 100.0), _log_uniform(0.1, 10.0)),
    st.builds(cosine, _log_uniform(1e3, 1e4), _log_uniform(0.1, 10.0)),
    st.builds(brownian, _log_uniform(0.01, 1.0)),
)


@settings(max_examples=50, deadline=None)
@given(kernel=kernel_trees(3, _EXPM_LEAVES, max_product_dim=16), dt=_log_uniform(1e-3, 1e3))
def test_closed_form_transition_matches_expm(kernel, dt):
    import scipy.linalg

    trans = discretize(kernel, dt)
    A_ref = scipy.linalg.expm(kernel.feedback * dt)
    Q_ref = _noise_rule(kernel, A_ref, dt)
    Q_ref = (Q_ref + Q_ref.T) / 2.0
    assert np.linalg.norm(trans.A - A_ref) <= 1e-12 * max(1.0, np.linalg.norm(A_ref))
    scale = max(1.0, np.linalg.norm(kernel.initial_cov), np.linalg.norm(Q_ref))
    assert np.linalg.norm(trans.Q - Q_ref) <= 1e-12 * scale
