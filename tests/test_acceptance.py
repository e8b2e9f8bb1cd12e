"""Acceptance suite: the guarantees the package is built around.

Each test covers one headline claim end to end and prints a single
[PASS]/[FAIL] line so the suite doubles as a checklist:

 1. streaming filter likelihood == dense GP marginal likelihood
 2. state-space kernels reproduce their closed-form covariances
 3. constrained EM keeps loadings orthonormal and latent posteriors
    independent at every iteration
 4. unconstrained EM is monotone in data log-likelihood
 5. the static factor likelihood is rotation invariant
 6. the closed-form parameter update matches a numerical maximizer
 7. the robust gate skips a spike burst and protects the state
 8. latent-targeted anomalies are attributed to the right latent and
    off-subspace anomalies inflate the reconstruction error
 9. range-adjusted metrics and the threshold sweep match an exhaustive
    reference
10. runtime scales linearly in stream length, and the constrained mode
    scales better in the latent count than the unconstrained one
11. the evaluation pipeline handles every supported dataset layout with
    one report schema
12. per-point scoring latency stays in the low-millisecond range

Checks are computed first and asserted after the verdict line, so a
failure still prints its line.  Random seeds are fixed; every numeric
bound is stated next to its check.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import scipy.optimize

from ssgpfa import cli
from ssgpfa.data import (
    Injection,
    LabeledSeries,
    SyntheticSpec,
    gen_multivariate,
    gen_univariate,
    write_csv,
)
from ssgpfa.kalman import LinearObservationModel, robust_filter, univariate_observation_model
from ssgpfa.kernels import add, cosine, matern32, multiply, parse_kernel, prior_covariance
from ssgpfa.metrics import best_f1_sweep, range_adjusted_metrics
from ssgpfa.model import (
    SsgpfaModel,
    default_multivariate_kernels,
    e_step,
    fa_likelihood,
    fit_em,
    m_step,
    score_online,
)

TWO_PI = 2.0 * math.pi


def _verdict(num: int, label: str, checks: dict) -> None:
    """Print the one-line verdict, then fail on the first broken check."""
    ok = all(checks.values())
    print(f"[{'PASS' if ok else 'FAIL'}] {num:2d} {label}")
    assert ok, f"failed checks: {[name for name, good in checks.items() if not good]}"


def _orthonormal(d: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


# --- 1. streaming likelihood equals the dense GP marginal likelihood --------


def _dense_gp_loglik(kernel, times, y, noise_var):
    """Marginal log-likelihood of y under N(0, K + noise_var I)."""
    n = len(times)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = prior_covariance(kernel, abs(times[i] - times[j]))
    chol = np.linalg.cholesky(gram + noise_var * np.eye(n))
    alpha = np.linalg.solve(chol, y)
    return float(-0.5 * n * math.log(TWO_PI) - np.log(np.diag(chol)).sum()
                 - 0.5 * alpha @ alpha)


def test_streaming_likelihood_matches_dense_gp():
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.uniform(0.2, 1.0, size=50))
    y = 1.2 * rng.standard_normal(50)
    noise_var = 0.3
    kernels = {
        "matern": matern32(lengthscale=1.8, variance=1.3),
        "cosine": cosine(period=5.0, variance=0.8),
        "sum": add(matern32(lengthscale=4.0, variance=0.6), cosine(period=7.0, variance=1.1)),
        "product": multiply(matern32(lengthscale=3.0, variance=1.0),
                            cosine(period=6.0, variance=0.9)),
    }
    checks = {}
    start = time.perf_counter()
    for name, kernel in kernels.items():
        obs = univariate_observation_model(kernel, noise_var)
        streamed = sum(step.log_likelihood
                       for step in robust_filter(times, y, kernel, obs, robust=False))
        dense = _dense_gp_loglik(kernel, times, y, noise_var)
        rel = abs(streamed - dense) / abs(dense)
        checks[f"{name} rel err {rel:.2e} < 1e-6"] = rel < 1e-6
    elapsed = time.perf_counter() - start
    checks[f"runtime {elapsed:.2f}s < 1s"] = elapsed < 1.0
    _verdict(1, "streaming filter matches dense GP likelihood", checks)


# --- 2. kernel covariances match their closed forms --------------------------


def test_covariances_match_closed_forms():
    def k_matern(lengthscale, variance):
        lam = math.sqrt(3.0) / lengthscale
        return lambda tau: variance * (1.0 + lam * tau) * math.exp(-lam * tau)

    def k_cosine(period, variance):
        return lambda tau: variance * math.cos(TWO_PI * tau / period)

    m1, a_m1 = matern32(lengthscale=1.5, variance=0.7), k_matern(1.5, 0.7)
    m2, a_m2 = matern32(lengthscale=4.0, variance=1.4), k_matern(4.0, 1.4)
    c1, a_c1 = cosine(period=3.0, variance=1.3), k_cosine(3.0, 1.3)
    c2, a_c2 = cosine(period=9.0, variance=0.5), k_cosine(9.0, 0.5)
    cases = {
        "matern": (m1, a_m1),
        "cosine": (c1, a_c1),
        "matern+cosine": (add(m1, c1), lambda t: a_m1(t) + a_c1(t)),
        "matern*cosine": (multiply(m1, c1), lambda t: a_m1(t) * a_c1(t)),
        "(matern+cosine)*cosine": (multiply(add(m1, c1), c2),
                                   lambda t: (a_m1(t) + a_c1(t)) * a_c2(t)),
        "matern+matern*cosine": (add(m2, multiply(m1, c1)),
                                 lambda t: a_m2(t) + a_m1(t) * a_c1(t)),
    }
    lags = np.linspace(0.0, 8.0, 20)
    checks = {}
    for name, (kernel, analytic) in cases.items():
        gap = max(abs(prior_covariance(kernel, tau) - analytic(tau)) for tau in lags)
        checks[f"{name} max gap {gap:.2e} < 1e-8"] = gap < 1e-8
    _verdict(2, "state-space covariances match closed forms", checks)


# --- 3. orthonormal loadings and independent posteriors every iteration ------


def test_em_keeps_loadings_orthonormal_and_posteriors_independent():
    spec = SyntheticSpec(length=300, seed=4)
    kernels = [matern32(lengthscale=20.0), cosine(period=24.0)]
    series, _, _ = gen_multivariate(spec, 6, kernels, noise_variance=0.1)
    t = series.timestamps

    gram_gaps = []
    offdiag_maxes = []

    def watch(_iteration, model, _posterior):
        k = model.n_latents
        gram_gaps.append(np.linalg.norm(model.loading.T @ model.loading - np.eye(k)))
        joint = e_step(replace(model, mode="unconstrained"), series.values, t)
        covs = joint.covs
        off = covs - covs * np.eye(k)[None, :, :]
        offdiag_maxes.append(np.abs(off).max())

    start = time.perf_counter()
    fit_em(series.values, t, kernels, mode="orthogonal", max_iters=6, tol=0.0,
           callback=watch)
    elapsed = time.perf_counter() - start

    checks = {
        "ran 6 iterations": len(gram_gaps) == 6,
        f"max gram gap {max(gram_gaps):.2e} < 1e-8": max(gram_gaps) < 1e-8,
        f"max posterior off-diagonal {max(offdiag_maxes):.2e} < 1e-8":
            max(offdiag_maxes) < 1e-8,
        f"runtime {elapsed:.1f}s < 30s": elapsed < 30.0,
    }
    _verdict(3, "EM keeps loadings orthonormal, posteriors independent", checks)


# --- 4. unconstrained EM is monotone ------------------------------------------


def test_unconstrained_em_is_monotone():
    spec = SyntheticSpec(length=200, seed=9)
    kernels = [matern32(lengthscale=15.0), cosine(period=18.0)]
    series, _, _ = gen_multivariate(spec, 5, kernels, noise_variance=0.2)
    model = fit_em(series.values, series.timestamps, kernels,
                   mode="unconstrained", max_iters=25, tol=0.0)
    log = np.array(model.training_log)
    worst = float(np.min(np.diff(log)))
    checks = {
        "ran 25 iterations": log.size == 25,
        f"worst step {worst:.2e} >= -1e-8": worst >= -1e-8,
    }
    _verdict(4, "unconstrained EM log-likelihood is nondecreasing", checks)


# --- 5. rotation invariance of the static factor likelihood ------------------


def test_static_likelihood_rotation_invariant():
    rng = np.random.default_rng(21)
    d_dim, k_dim = 5, 3
    base_loading = _orthonormal(d_dim, k_dim, 3)
    kernels = [matern32(lengthscale=ls, variance=1.0) for ls in (9.0, 25.0, 60.0)]
    values = rng.standard_normal((d_dim, 40))
    model = SsgpfaModel(kernels=tuple(kernels), loading=base_loading,
                        offset=rng.standard_normal(d_dim), noise=0.2)
    base = fa_likelihood(model, values)
    worst = 0.0
    for seed in range(10):
        q, r = np.linalg.qr(np.random.default_rng(100 + seed).standard_normal((k_dim, k_dim)))
        q = q * np.sign(np.diag(r))
        rotated = replace(model, loading=base_loading @ q)
        worst = max(worst, abs(fa_likelihood(rotated, values) - base))
    checks = {f"max |delta log-lik| {worst:.2e} < 1e-10 over 10 rotations": worst < 1e-10}
    _verdict(5, "factor likelihood invariant under loading rotations", checks)


# --- 6. closed-form parameter update matches a numerical maximizer -----------


def _expected_nll_and_grad(theta, means, cov_sum, values):
    """Expected complete-data negative log-likelihood and its gradient.

    means is (T, K) posterior means, cov_sum the (K, K) sum of posterior
    covariances; the latent second moment is Szz = means.T @ means +
    cov_sum.  Parameters are packed as [C.ravel(), d, log(psi)].
    """
    d_dim, t_len = values.shape
    k_dim = means.shape[1]
    C = theta[:d_dim * k_dim].reshape(d_dim, k_dim)
    d = theta[d_dim * k_dim:d_dim * k_dim + d_dim]
    psi = np.exp(theta[-d_dim:])

    resid = values - d[:, None] - C @ means.T
    quad = (resid ** 2).sum(axis=1) + np.einsum("ik,kl,il->i", C, cov_sum, C)
    nll = 0.5 * float(t_len * np.sum(np.log(TWO_PI * psi)) + np.sum(quad / psi))

    szz = means.T @ means + cov_sum
    syz = (values - d[:, None]) @ means
    grad_c = (C @ szz - syz) / psi[:, None]
    grad_d = -resid.sum(axis=1) / psi
    grad_logpsi = 0.5 * (t_len - quad / psi)
    return nll, np.concatenate([grad_c.ravel(), grad_d, grad_logpsi])


def test_closed_form_update_matches_numerical_maximizer():
    checks = {}
    for seed in (0, 1, 2):
        rng = np.random.default_rng(40 + seed)
        d_dim, k_dim, t_len = 3, 2, 5
        values = rng.standard_normal((d_dim, t_len))
        model = SsgpfaModel(
            kernels=(matern32(lengthscale=3.0), matern32(lengthscale=7.0)),
            loading=rng.standard_normal((d_dim, k_dim)),
            offset=rng.standard_normal(d_dim),
            noise=rng.uniform(0.2, 0.8, size=d_dim),
            mode="unconstrained",
        )
        post = e_step(model, values, np.arange(t_len, dtype=float))
        c_star, d_star, psi_star = m_step(post, values)

        cov_sum = post.covs.sum(axis=0)
        theta0 = np.zeros(d_dim * k_dim + 2 * d_dim)
        res = scipy.optimize.minimize(
            _expected_nll_and_grad, theta0, args=(post.means, cov_sum, values),
            jac=True, method="L-BFGS-B",
            options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-14},
        )
        c_num = res.x[:d_dim * k_dim].reshape(d_dim, k_dim)
        d_num = res.x[d_dim * k_dim:d_dim * k_dim + d_dim]
        psi_num = np.exp(res.x[-d_dim:])
        gap = max(np.abs(c_star - c_num).max(), np.abs(d_star - d_num).max(),
                  np.abs(psi_star - psi_num).max())
        checks[f"instance {seed}: max parameter gap {gap:.2e} < 1e-4"] = gap < 1e-4
    _verdict(6, "closed-form update matches numerical maximizer", checks)


# --- 7. robust gate skips a spike burst and protects the state ---------------

# A drifting quasi-periodic signal is two sinusoids plus a linear trend,
# so the model kernel carries both periods and a slow matern for the
# trend. The noiseless variant keeps the comparison deterministic: with
# noise, the clean run absorbs five random draws the gated run never
# sees, and that jitter alone swamps a 10%-of-std bound.


def test_robust_gate_skips_spikes_and_protects_state():
    length, start_idx, spike_len = 400, 300, 5
    raw = gen_univariate(length, 0, noiseless=True).values[0]
    y = (raw - raw.mean()) / raw.std()
    spike = 8.0 * float(np.std(y))
    y_spiked = y.copy()
    y_spiked[start_idx:start_idx + spike_len] += spike

    kernel = parse_kernel(
        "matern32(lengthscale=150.0, variance=2.0) "
        f"+ cosine(period={TWO_PI / 0.24}, variance=0.08) "
        f"+ cosine(period={TWO_PI / 0.16}, variance=0.08)"
    )
    obs = LinearObservationModel(H=kernel.emission[None, :], R=np.array([0.09]),
                                 offset=np.zeros(1))
    times = np.arange(length, dtype=float)

    def predictive_mean_std(state):
        mean = float((obs.H @ state.mean)[0])
        var = float((obs.H @ state.cov @ obs.H.T)[0, 0] + obs.R[0])
        return mean, math.sqrt(var)

    begin = time.perf_counter()
    run_clean = list(robust_filter(times, y, kernel, obs, rho=1e-12))
    run_gated = list(robust_filter(times, y_spiked, kernel, obs, rho=1e-12))
    run_naive = list(robust_filter(times, y_spiked, kernel, obs, robust=False))
    elapsed = time.perf_counter() - begin

    window = slice(start_idx, start_idx + spike_len)
    n_skipped = sum(1 for step in run_gated[window] if not step.accepted)
    n_false = sum(1 for i, step in enumerate(run_gated)
                  if not step.accepted and not start_idx <= i < start_idx + spike_len)
    after = start_idx + spike_len
    mean_clean, std_clean = predictive_mean_std(run_clean[after].predicted)
    mean_gated, _ = predictive_mean_std(run_gated[after].predicted)
    mean_naive, _ = predictive_mean_std(run_naive[after].predicted)
    dev_gated = abs(mean_gated - mean_clean) / std_clean
    dev_naive = abs(mean_naive - mean_clean) / std_clean

    checks = {
        f"all {spike_len} spike points skipped ({n_skipped})": n_skipped == spike_len,
        f"no points skipped outside the burst ({n_false})": n_false == 0,
        f"gated deviation {dev_gated:.3f} of predictive std < 0.10": dev_gated < 0.10,
        f"naive deviation {dev_naive:.3f} of predictive std > 0.50": dev_naive > 0.50,
        f"runtime {elapsed:.2f}s < 1s": elapsed < 1.0,
    }
    _verdict(7, "robust gate skips spike burst and protects state", checks)


# --- 8. anomalies are attributed to the injected latent ----------------------


def test_anomalies_attributed_to_injected_latent():
    length, n_dims = 400, 8
    kernels = [matern32(lengthscale=130.0), cosine(period=24.0),
               matern32(lengthscale=50.0)]
    win_a, win_b, win_c = (120, 135), (220, 235), (320, 330)
    spec = SyntheticSpec(
        length=length, seed=5,
        injections=(
            Injection("spike", win_a[0], win_a[1] - win_a[0], 5.0, latent=0),
            Injection("spike", win_b[0], win_b[1] - win_b[0], 5.0, latent=1),
            Injection("sensor_offset", win_c[0], win_c[1] - win_c[0], 8.0, dims=(1,)),
        ),
    )
    series, _, loading = gen_multivariate(spec, n_dims, kernels, noise_variance=0.1)
    model = SsgpfaModel(kernels=tuple(kernels), loading=loading,
                        offset=np.zeros(n_dims), noise=0.1)
    points = list(score_online(model, series))
    latent_nlls = np.array([p.latent_nlls for p in points])
    recon = np.array([p.reconstruction_error for p in points])

    hit_a = float(np.mean(np.argmax(latent_nlls[win_a[0]:win_a[1]], axis=1) == 0))
    hit_b = float(np.mean(np.argmax(latent_nlls[win_b[0]:win_b[1]], axis=1) == 1))
    normal = np.ones(length, dtype=bool)
    for lo, hi in (win_a, win_b, win_c):
        normal[lo:hi] = False
    recon_ratio = float(recon[win_c[0]:win_c[1]].min() / np.median(recon[normal]))

    checks = {
        f"latent-0 window attribution rate {hit_a:.2f} >= 0.8": hit_a >= 0.8,
        f"latent-1 window attribution rate {hit_b:.2f} >= 0.8": hit_b >= 0.8,
        f"off-subspace reconstruction ratio {recon_ratio:.1f} >= 5": recon_ratio >= 5.0,
    }
    _verdict(8, "anomalies attributed to the injected latent", checks)


# --- 9. metrics match an exhaustive reference --------------------------------


def _reference_counts(scores, labels, threshold, adjust):
    with np.errstate(invalid="ignore"):
        flags = scores > threshold  # NaN compares False: a NaN never flags
    if adjust:
        flags = flags.copy()
        i = 0
        while i < len(labels):
            if labels[i]:
                j = i
                while j < len(labels) and labels[j]:
                    j += 1
                if flags[i:j].any():
                    flags[i:j] = True
                i = j
            else:
                i += 1
    tp = int(np.sum(flags & (labels == 1)))
    fp = int(np.sum(flags & (labels == 0)))
    fn = int(np.sum(~flags & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return tp, fp, fn, precision, recall, f1


def _reference_best(scores, labels, adjust):
    candidates = [math.inf] + sorted(
        {float(s) for s in scores if math.isfinite(s)}, reverse=True) + [-math.inf]
    best = None
    for th in candidates:
        tp, fp, fn, precision, recall, f1 = _reference_counts(scores, labels, th, adjust)
        entry = (th, tp, fp, fn, precision, recall, f1)
        if best is None or f1 > best[6] or (f1 == best[6] and precision >= best[4]):
            best = entry
    return best


def test_metrics_match_exhaustive_reference():
    rng = np.random.default_rng(77)
    alphabet = np.array([0.1, 0.2, 0.5, 0.9, 1.3])
    mismatches = 0
    n_instances = 200
    for trial in range(n_instances):
        t_len = int(rng.integers(1, 13))
        scores = rng.choice(alphabet, size=t_len)
        if trial % 10 == 0:
            scores[rng.integers(t_len)] = math.nan
        labels = (rng.random(t_len) < 0.35).astype(np.int8)
        labels[rng.integers(t_len)] = 1
        adjust = bool(trial % 3)

        report = best_f1_sweep(scores, labels, adjust=adjust)
        th, tp, fp, fn, precision, recall, f1 = _reference_best(scores, labels, adjust)
        if (report.threshold, report.true_positives, report.false_positives,
                report.false_negatives, report.precision, report.recall,
                report.f1) != (th, tp, fp, fn, precision, recall, f1):
            mismatches += 1
            continue

        for fixed in (math.inf, -math.inf, *np.unique(scores[np.isfinite(scores)])):
            rep = range_adjusted_metrics(scores, labels, threshold=fixed, adjust=adjust)
            ref = _reference_counts(scores, labels, fixed, adjust)
            if (rep.true_positives, rep.false_positives, rep.false_negatives,
                    rep.precision, rep.recall, rep.f1) != ref:
                mismatches += 1
                break

    checks = {f"0 mismatches in {n_instances} random instances ({mismatches})":
              mismatches == 0}
    _verdict(9, "metrics match exhaustive reference exactly", checks)


# --- 10. runtime scaling trends ----------------------------------------------


def _min_fit_times(cases, reps=3):
    """Minimum wall time of each ``(values, timestamps, kernels, mode)``
    fit over ``reps`` rounds. A round fits every case once, so a host
    stall lands on the cases alike instead of on all reps of one."""
    best = [math.inf] * len(cases)
    for _ in range(reps):
        for i, (values, timestamps, kernels, mode) in enumerate(cases):
            begin = time.perf_counter()
            fit_em(values, timestamps, kernels, mode=mode, max_iters=2, tol=0.0)
            best[i] = min(best[i], time.perf_counter() - begin)
    return best


def _wide_kernel(i, extra_factor=False):
    """Composite with a 16- or 32-dimensional state, to make per-step
    linear-algebra cost dominate Python overhead."""
    a = multiply(matern32(lengthscale=20.0 + i), cosine(period=24.0 + i))
    b = multiply(matern32(lengthscale=35.0 + i), cosine(period=11.0 + i))
    wide = multiply(a, b)
    if extra_factor:
        wide = multiply(wide, cosine(period=7.0 + i))
    return wide


def test_runtime_scaling_trends():
    rng = np.random.default_rng(31)

    # doubling the stream length should roughly double training time
    kernels = [_wide_kernel(i) for i in range(2)]
    t_half, t_full = _min_fit_times(
        [(rng.standard_normal((6, length)), np.arange(length, dtype=float), kernels,
          "orthogonal") for length in (300, 600)])
    length_ratio = t_full / t_half

    # doubling the latent count should hit the unconstrained joint filter
    # (state dimension K*L) much harder than the per-latent constrained path
    values = rng.standard_normal((8, 160))
    times = np.arange(160, dtype=float)
    ratios = {}
    for mode in ("orthogonal", "unconstrained"):
        two, four = _min_fit_times(
            [(values, times, [_wide_kernel(i, True) for i in range(k)], mode) for k in (2, 4)])
        ratios[mode] = four / two

    checks = {
        f"T->2T time ratio {length_ratio:.2f} in [1.3, 2.7]": 1.3 <= length_ratio <= 2.7,
        (f"K=2->4 ratio constrained {ratios['orthogonal']:.2f} < "
         f"unconstrained {ratios['unconstrained']:.2f}"):
            ratios["orthogonal"] < ratios["unconstrained"],
    }
    _verdict(10, "runtime scales linearly in length; constrained mode "
                 "scales better in latents", checks)


# --- 11. evaluation pipeline handles every dataset layout --------------------


def _labeled_case(seed):
    base = gen_univariate(100, seed)
    values = base.values.copy()
    sigma = float(values.std())
    labels = np.zeros(100, dtype=np.int8)
    values[0, 60:63] += 6.0 * sigma
    labels[60:63] = 1
    return LabeledSeries(base.timestamps, values, labels=labels)


def _layout_tree(root, layout, seed):
    if layout == "csv":
        write_csv(_labeled_case(seed), root / "series_a.csv")
    elif layout == "nab":
        (root / "streams_a").mkdir(parents=True)
        (root / "streams_b").mkdir(parents=True)
        write_csv(_labeled_case(seed), root / "streams_a" / "series_a.csv")
        write_csv(_labeled_case(seed + 1), root / "streams_b" / "series_b.csv")
    else:  # nasa / smd: explicit train/test pairs
        (root / "train").mkdir(parents=True)
        (root / "test").mkdir(parents=True)
        case = _labeled_case(seed)
        train = LabeledSeries(case.timestamps[:20], case.values[:, :20])
        test = case.slice(20, 100)
        write_csv(train, root / "train" / "pair_a.csv")
        write_csv(test, root / "test" / "pair_a.csv")


def test_pipeline_handles_all_dataset_layouts(tmp_path, capsys):
    report_keys = sorted(("threshold", "precision", "recall", "f1",
                          "true_positives", "false_positives", "false_negatives"))
    case_keys = sorted(("name", "n_train", "n_test", "report"))
    schemas = {}
    checks = {}
    for i, layout in enumerate(("csv", "nab", "nasa", "smd")):
        root = tmp_path / layout
        root.mkdir()
        _layout_tree(root, layout, seed=30 + i)
        out_dir = tmp_path / f"{layout}_out"
        code = cli.main([
            "pipeline", "--input", str(root), "--dataset-layout", layout,
            "--output", str(out_dir), "--kernels", "matern32(lengthscale=10.0)",
            "--seed", "0",
        ])
        payload = json.loads(capsys.readouterr().out)
        checks[f"{layout} exits 0"] = code == 0
        case_ok = all(sorted(case) == case_keys
                      and sorted(case["report"]) == report_keys
                      for case in payload.get("cases", []))
        checks[f"{layout} case and report schema"] = case_ok and bool(payload["cases"])
        for case in payload.get("cases", []):
            name = case["name"]
            checks[f"{layout} artifacts for {name}"] = (
                (out_dir / f"{name}_model.json").is_file()
                and (out_dir / f"{name}_scores.csv").is_file())
        schemas[layout] = tuple(sorted(payload))
    distinct = set(schemas.values())
    checks[f"one payload schema across layouts ({sorted(distinct)})"] = len(distinct) == 1
    _verdict(11, "pipeline handles csv/nab/nasa/smd layouts with one schema", checks)


# --- 12. per-point scoring latency --------------------------------------------


def test_streaming_latency_smoke():
    n_dims, n_latents, length = 38, 4, 400
    kernels = default_multivariate_kernels(n_latents)
    series, _, loading = gen_multivariate(
        SyntheticSpec(length=length, seed=2), n_dims, kernels, noise_variance=0.1)
    model = SsgpfaModel(kernels=tuple(kernels), loading=loading,
                        offset=np.zeros(n_dims), noise=0.1)

    stream = score_online(model, series)
    laps = []
    begin = time.perf_counter()
    for _ in range(length):
        next(stream)
        now = time.perf_counter()
        laps.append(now - begin)
        begin = now
    median_ms = 1e3 * float(np.median(laps))
    checks = {f"median per-point latency {median_ms:.3f}ms < 5ms": median_ms < 5.0}
    _verdict(12, "per-point scoring latency in the low milliseconds", checks)
