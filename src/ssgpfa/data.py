"""Series containers, synthetic generators, CSV I/O and dataset layouts.

The CSV schema used everywhere is::

    timestamp,dim_0,...,dim_{D-1}[,is_anomaly]

Timestamps are numeric (seconds) or ISO-8601; empty value fields mark
missing entries. Files written by :func:`write_csv` use numeric
timestamps and shortest-round-trip floats, so loading and rewriting
such a file reproduces it byte for byte.

Synthetic generators draw from a counter-based Philox RNG, so a fixed
seed reproduces the same series on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError, ParameterError
from .kernels import StateSpaceKernel, cosine, discretize, matern32

__all__ = [
    "LabeledSeries",
    "Injection",
    "SyntheticSpec",
    "BenchmarkCase",
    "gen_univariate",
    "gen_multivariate",
    "scenario_explain",
    "scenario_robust",
    "scenario_clean",
    "SCENARIOS",
    "load_csv",
    "write_csv",
    "iter_csv_rows",
    "read_csv_header",
    "split_train_test",
    "load_benchmark_layout",
]

INJECTION_KINDS = ("spike", "amplitude_scale", "damping", "sensor_offset", "change_point")


@dataclass(frozen=True, eq=False)
class LabeledSeries:
    """A (possibly multivariate) time series with optional labels.

    ``values`` is (D, T) with one row per dimension; ``mask`` is True
    where a value was actually observed; ``labels`` flags anomalous
    time steps (None when unlabeled).
    """

    timestamps: np.ndarray
    values: np.ndarray
    mask: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float).reshape(-1)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        D, T = values.shape
        if t.shape != (T,):
            raise InputError(f"need {T} timestamps for {T} columns, got {t.shape}")
        if not np.isfinite(t).all():
            bad = int(np.nonzero(~np.isfinite(t))[0][0])
            raise InputError(f"timestamps must be finite (index {bad})")
        if T > 1 and not np.all(np.diff(t) > 0.0):
            bad = int(np.nonzero(~(np.diff(t) > 0.0))[0][0]) + 1
            raise InputError(f"timestamps must be strictly increasing (index {bad})")
        mask = self.mask
        if mask is None:
            mask = np.isfinite(values)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != values.shape:
                raise InputError(f"mask must have shape {values.shape}, got {mask.shape}")
            mask = mask & np.isfinite(values)
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (T,):
                raise InputError(f"labels must have length {T}, got {labels.shape}")
            uniq = np.unique(labels)
            if not np.all(np.isin(uniq, (0, 1, False, True))):
                raise InputError(f"labels must be binary, found {uniq[:5]!r}")
            labels = labels.astype(np.int8)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "labels", labels)

    @property
    def n_dims(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def slice(self, start: int, stop: int) -> "LabeledSeries":
        """Sub-series over the half-open index range [start, stop)."""
        return LabeledSeries(
            self.timestamps[start:stop],
            self.values[:, start:stop],
            self.mask[:, start:stop],
            None if self.labels is None else self.labels[start:stop],
        )


@dataclass(frozen=True)
class Injection:
    """One synthetic anomaly.

    ``kind`` picks the effect; ``latent`` targets a latent path before
    mixing, ``dims`` targets observed dimensions after mixing but
    before noise (exactly one of the two must be set for multivariate
    generation). ``spike``/``sensor_offset`` add ``magnitude`` inside
    the window, ``amplitude_scale``/``damping`` multiply by it, and
    ``change_point`` adds it from ``start`` to the end of the series
    while only the window itself is labeled anomalous.
    """

    kind: str
    start: int
    duration: int
    magnitude: float
    latent: int | None = None
    dims: tuple | None = None

    def __post_init__(self):
        if self.kind not in INJECTION_KINDS:
            raise ConfigError(
                f"unknown injection kind {self.kind!r}; expected one of {INJECTION_KINDS}"
            )
        if self.duration < 1:
            raise ParameterError(f"injection duration must be >= 1, got {self.duration}")
        if self.start < 0:
            raise ParameterError(f"injection start must be >= 0, got {self.start}")
        if self.latent is not None and self.dims is not None:
            raise ConfigError("injection must target either a latent or observed dims, not both")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(i) for i in self.dims))

    @property
    def stop(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class SyntheticSpec:
    """Length, seed and anomaly injections for a generated dataset."""

    length: int
    seed: int = 0
    injections: tuple = ()

    def __post_init__(self):
        if self.length < 1:
            raise ParameterError(f"length must be >= 1, got {self.length}")
        injections = tuple(self.injections)
        for inj in injections:
            if not isinstance(inj, Injection):
                raise ConfigError("injections must be Injection instances")
            if inj.stop > self.length:
                raise ParameterError(
                    f"injection window [{inj.start}, {inj.stop}) exceeds series length "
                    f"{self.length}"
                )
        object.__setattr__(self, "injections", injections)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def gen_univariate(length: int, seed: int = 0, *, noiseless: bool = False,
                   noise_as_std: bool = False) -> LabeledSeries:
    """Drifting quasi-periodic test signal.

        y(t) = cos(0.04 t + 0.33 pi) sin(0.2 t) + eps + (5/300) t

    at integer t, with eps drawn i.i.d. Gaussian. The noise parameter
    0.15 is interpreted as a variance by default; ``noise_as_std``
    switches that reading. ``noiseless`` drops eps entirely. Labels are
    all zero; anomalies are injected separately.
    """
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    t = np.arange(length, dtype=float)
    signal = np.cos(0.04 * t + 0.33 * math.pi) * np.sin(0.2 * t) + (5.0 / 300.0) * t
    if noiseless:
        y = signal
    else:
        scale = 0.15 if noise_as_std else math.sqrt(0.15)
        y = signal + scale * _rng(seed).standard_normal(length)
    return LabeledSeries(t, y[None, :], labels=np.zeros(length, dtype=np.int8))


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix, tolerant of zero eigenvalues."""
    w, V = np.linalg.eigh((cov + cov.T) / 2.0)
    return V * np.sqrt(np.clip(w, 0.0, None))


def _sample_latent(kernel: StateSpaceKernel, length: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Exact draw of a latent path at unit spacing via the state recursion."""
    trans = discretize(kernel, 1.0)
    noise_factor = _cov_factor(trans.Q)
    x = _cov_factor(kernel.initial_cov) @ rng.standard_normal(kernel.state_dim)
    h = kernel.emission
    path = np.empty(length)
    for t in range(length):
        path[t] = h @ x
        x = trans.A @ x + noise_factor @ rng.standard_normal(kernel.state_dim)
    return path


def _default_kernels() -> list[StateSpaceKernel]:
    # Reproduction defaults for the three-latent generator: one smooth
    # trend latent plus a short (daily) and a long (weekly) oscillation,
    # hour-indexed.
    return [matern32(50.0, 1.0), cosine(24.0, 1.0), cosine(168.0, 1.0)]


def _apply_injection(inj: Injection, rows: np.ndarray, window_rows: np.ndarray) -> None:
    """Mutate the targeted rows in place; rows is a (n, T) view."""
    w = slice(inj.start, inj.stop)
    if inj.kind in ("spike", "sensor_offset"):
        rows[window_rows, w] += inj.magnitude
    elif inj.kind in ("amplitude_scale", "damping"):
        rows[window_rows, w] *= inj.magnitude
    else:  # change_point persists beyond the labeled window
        rows[window_rows, inj.start:] += inj.magnitude


def gen_multivariate(spec: SyntheticSpec, n_dims: int,
                     kernels: list | None = None, *,
                     noise_variance: float = 0.1, offset: np.ndarray | None = None):
    """Latent GP paths mixed through a random orthonormal loading.

    Samples one path per kernel with the exact state recursion
    x_{t+1} = A x_t + chol(Q) xi at unit spacing, applies
    latent-targeted injections, mixes through a random C with
    orthonormal columns plus ``offset``, applies dimension-targeted
    injections, and finally adds isotropic observation noise.

    Returns ``(series, latents, loading)`` where ``latents`` is (K, T)
    pre-mixing (injections included) and ``series.labels`` marks every
    injection window.
    """
    kernels = _default_kernels() if kernels is None else list(kernels)
    K = len(kernels)
    if K < 1:
        raise ConfigError("need at least one latent kernel")
    if n_dims < K:
        raise ConfigError(f"need n_dims >= {K} for {K} latents, got {n_dims}")
    if noise_variance <= 0.0 or not math.isfinite(noise_variance):
        raise ParameterError(f"noise_variance must be positive, got {noise_variance!r}")
    T = spec.length
    rng = _rng(spec.seed)

    Z = np.stack([_sample_latent(k, T, rng) for k in kernels])

    for inj in spec.injections:
        if inj.latent is not None:
            if not 0 <= inj.latent < K:
                raise ConfigError(f"injection targets latent {inj.latent}, model has {K}")
            if inj.kind == "sensor_offset":
                raise ConfigError("sensor_offset targets observed dims, not a latent")
            _apply_injection(inj, Z, np.array([inj.latent]))
        elif inj.dims is None:
            raise ConfigError(f"{inj.kind} injection needs a latent or dims target")

    G = rng.standard_normal((n_dims, K))
    Q, R = np.linalg.qr(G)
    C = Q * np.sign(np.diag(R))
    d = np.zeros(n_dims) if offset is None else np.asarray(offset, dtype=float)
    if d.shape != (n_dims,):
        raise ParameterError(f"offset must have length {n_dims}, got {d.shape}")

    clean = C @ Z + d[:, None]
    for inj in spec.injections:
        if inj.dims is not None:
            dims = np.asarray(inj.dims, dtype=int)
            if dims.size == 0 or dims.min() < 0 or dims.max() >= n_dims:
                raise ConfigError(f"injection dims {inj.dims} outside 0..{n_dims - 1}")
            _apply_injection(inj, clean, dims)

    values = clean + math.sqrt(noise_variance) * rng.standard_normal((n_dims, T))
    labels = np.zeros(T, dtype=np.int8)
    for inj in spec.injections:
        labels[inj.start:inj.stop] = 1
    series = LabeledSeries(np.arange(T, dtype=float), values, labels=labels)
    return series, Z, C


def scenario_explain(seed: int = 0, length: int = 400, n_dims: int = 8):
    """Three-latent mixture with one amplified and one damped oscillation.

    The short-period latent is scaled up over one of its cycles and the
    long-period latent is damped over a later window, so a correct
    attribution points at latent 1 in the first window and latent 2 in
    the second. Returns ``(series, latents, loading)``.
    """
    if length < 120:
        raise ParameterError(f"explain scenario needs length >= 120, got {length}")
    third = length // 3
    spec = SyntheticSpec(
        length=length,
        seed=seed,
        injections=(
            Injection("amplitude_scale", start=third, duration=24, magnitude=3.0, latent=1),
            Injection("damping", start=2 * third, duration=36, magnitude=0.05, latent=2),
        ),
    )
    return gen_multivariate(spec, n_dims)


def scenario_robust(seed: int = 0, length: int = 300) -> LabeledSeries:
    """Univariate stream with two spike anomalies and a change point."""
    base = gen_univariate(length, seed)
    values = base.values.copy()
    labels = np.zeros(length, dtype=np.int8)
    injections = (
        Injection("spike", start=length // 4, duration=1, magnitude=4.0, dims=(0,)),
        Injection("spike", start=length // 2, duration=3, magnitude=-3.0, dims=(0,)),
        Injection("change_point", start=(3 * length) // 4, duration=10, magnitude=2.0,
                  dims=(0,)),
    )
    for inj in injections:
        if inj.stop > length:
            raise ParameterError("injection window exceeds series length")
        _apply_injection(inj, values, np.array([0]))
        labels[inj.start:inj.stop] = 1
    return LabeledSeries(base.timestamps, values, labels=labels)


def scenario_clean(seed: int = 0, length: int = 300) -> LabeledSeries:
    """Anomaly-free univariate stream for training."""
    return gen_univariate(length, seed)


SCENARIOS = {
    "explain": scenario_explain,
    "robust": scenario_robust,
    "clean": scenario_clean,
}


# --- CSV I/O ----------------------------------------------------------------


def _render_number(x: float) -> str:
    if math.isfinite(x) and float(x).is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _parse_timestamp(text: str, line_no: int) -> float:
    try:
        t = float(text)
    except ValueError:
        try:
            stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            raise InputError(f"line {line_no}: bad timestamp {text!r}") from None
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        t = stamp.timestamp()
    if not math.isfinite(t):
        raise InputError(f"line {line_no}: timestamp {text!r} is not finite")
    return t


def read_csv_header(path):
    """Validate the header line; returns (n_dims, has_labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    return _parse_header(header, path)


def _parse_header(header: str, path) -> tuple[int, bool]:
    if not header:
        raise InputError(f"{path}: empty file")
    cols = header.rstrip("\r\n").split(",")
    if cols[0] != "timestamp" or len(cols) < 2:
        raise InputError(
            f"{path}: line 1: header must be 'timestamp,dim_0,...[,is_anomaly]'"
        )
    has_labels = cols[-1] == "is_anomaly"
    dim_cols = cols[1:-1] if has_labels else cols[1:]
    if not dim_cols:
        raise InputError(f"{path}: line 1: no value columns")
    for i, name in enumerate(dim_cols):
        if name != f"dim_{i}":
            raise InputError(f"{path}: line 1: expected column 'dim_{i}', got {name!r}")
    return len(dim_cols), has_labels


def iter_csv_rows(path):
    """Stream rows as ``(timestamp, values, mask, label)`` tuples.

    ``label`` is None when the file has no is_anomaly column. Reads one
    line at a time, so memory use is independent of file length.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_dims, has_labels = _parse_header(fh.readline(), path)
        n_cols = 1 + n_dims + (1 if has_labels else 0)
        prev_t = None
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != n_cols:
                raise InputError(
                    f"{path}: line {line_no}: expected {n_cols} fields, got {len(fields)}"
                )
            t = _parse_timestamp(fields[0], line_no)
            if prev_t is not None and not t > prev_t:
                raise InputError(
                    f"{path}: line {line_no}: timestamps must be strictly increasing"
                )
            prev_t = t
            values = np.empty(n_dims)
            mask = np.ones(n_dims, dtype=bool)
            for i, field_text in enumerate(fields[1:1 + n_dims]):
                if field_text == "":
                    values[i] = np.nan
                    mask[i] = False
                else:
                    try:
                        values[i] = float(field_text)
                    except ValueError:
                        raise InputError(
                            f"{path}: line {line_no}: bad value {field_text!r} in dim_{i}"
                        ) from None
            label = None
            if has_labels:
                if fields[-1] not in ("0", "1"):
                    raise InputError(
                        f"{path}: line {line_no}: is_anomaly must be 0 or 1, "
                        f"got {fields[-1]!r}"
                    )
                label = int(fields[-1])
            yield t, values, mask, label


def load_csv(path) -> LabeledSeries:
    """Read a whole CSV file into a :class:`LabeledSeries`."""
    timestamps = []
    rows = []
    masks = []
    labels = []
    has_labels = False
    try:
        for t, values, mask, label in iter_csv_rows(path):
            timestamps.append(t)
            rows.append(values)
            masks.append(mask)
            if label is not None:
                has_labels = True
                labels.append(label)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    return LabeledSeries(
        np.array(timestamps),
        np.array(rows).T,
        np.array(masks).T,
        np.array(labels, dtype=np.int8) if has_labels else None,
    )


def write_csv(series: LabeledSeries, path) -> None:
    """Write a series in the canonical CSV form.

    Numeric timestamps, shortest-round-trip floats, empty fields for
    missing values; loading the result and writing it again reproduces
    the file byte for byte.
    """
    D = series.n_dims
    cols = ["timestamp"] + [f"dim_{i}" for i in range(D)]
    if series.labels is not None:
        cols.append("is_anomaly")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for j in range(series.length):
            fields = [_render_number(float(series.timestamps[j]))]
            for i in range(D):
                if series.mask[i, j]:
                    fields.append(repr(float(series.values[i, j])))
                else:
                    fields.append("")
            if series.labels is not None:
                fields.append(str(int(series.labels[j])))
            fh.write(",".join(fields) + "\n")


# --- dataset layouts --------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkCase:
    """One train/test pair from a dataset layout."""

    train: LabeledSeries
    test: LabeledSeries
    labels: np.ndarray | None
    name: str


def split_train_test(series: LabeledSeries, train_fraction: float = 0.2):
    """Deterministic prefix split: first ``int(train_fraction * T)`` points train."""
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction!r}")
    T = series.length
    n_train = int(train_fraction * T)
    if n_train < 1 or T - n_train < 1:
        raise InputError(f"series of length {T} is too short to split")
    return series.slice(0, n_train), series.slice(n_train, T)


def _case_from_file(path: Path) -> BenchmarkCase:
    series = load_csv(path)
    train, test = split_train_test(series)
    return BenchmarkCase(train, test, test.labels, path.stem)


def load_benchmark_layout(root, dataset: str) -> list:
    """Load train/test cases from a dataset directory.

    ``csv``
        a single canonical CSV file (or a directory holding one or
        more); each series is split 20/80 into train/test by index.
    ``nab``
        a directory tree of labeled CSV files, each split 20/80.
    ``nasa`` / ``smd``
        ``root/train/*.csv`` (unlabeled) paired with
        ``root/test/*.csv`` (labeled) by file name.

    Returns a list of :class:`BenchmarkCase`, sorted by name.
    """
    root = Path(root)
    if dataset in ("csv", "nab"):
        if root.is_file():
            return [_case_from_file(root)]
        if not root.is_dir():
            raise InputError(f"{root}: no such file or directory")
        files = sorted(root.rglob("*.csv"))
        if not files:
            raise InputError(f"{root}: no CSV files found")
        return [_case_from_file(f) for f in files]
    if dataset in ("nasa", "smd"):
        train_dir = root / "train"
        test_dir = root / "test"
        if not train_dir.is_dir() or not test_dir.is_dir():
            raise InputError(f"{root}: expected train/ and test/ subdirectories")
        cases = []
        for train_path in sorted(train_dir.glob("*.csv")):
            test_path = test_dir / train_path.name
            if not test_path.is_file():
                raise InputError(f"{test_path}: missing test file for {train_path.name}")
            train = load_csv(train_path)
            test = load_csv(test_path)
            if test.labels is None:
                raise InputError(f"{test_path}: test file must carry an is_anomaly column")
            cases.append(BenchmarkCase(train, test, test.labels, train_path.stem))
        if not cases:
            raise InputError(f"{train_dir}: no CSV files found")
        return cases
    raise ConfigError(f"unknown dataset layout {dataset!r}; expected csv, nab, nasa or smd")
