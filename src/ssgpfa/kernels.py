"""State-space representations of Gaussian process covariance functions.

A zero-mean temporal GP with a suitable kernel k is equivalent to a linear
stochastic differential equation

    dx(t) = F x(t) dt + L dW(t),        f(t) = h^T x(t),

where x is an L-dimensional latent state. Conditioning on irregularly
spaced observations then runs in linear time through the Kalman
recursions, using the discrete transition pair

    A(dt) = expm(F dt)
    Q(dt) = P_inf - A(dt) P_inf A(dt)^T      (stationary kernels)

with P_inf the stationary state covariance. Nonstationary kernels carry
their own process-noise rule instead of P_inf.

Supported base kernels:

``matern32(lengthscale, variance)``
    F = [[0, 1], [-lam^2, -2 lam]], h = [1, 0], lam = sqrt(3)/lengthscale,
    P_inf = diag(variance, lam^2 variance),
    k(tau) = variance (1 + lam tau) exp(-lam tau).

``cosine(period, variance)``
    F = [[0, -w], [w, 0]], h = [1, 0], w = 2 pi / period,
    P_inf = variance I, k(tau) = variance cos(w tau). The transition is a
    pure rotation, so Q(dt) = 0.

``brownian(diffusion)``
    F = [0], h = [1], Q(dt) = diffusion * dt, state variance 0 at the
    start of a stream. Nonstationary.

Kernels combine under ``+`` (block stacking) and ``*`` (Kronecker sum of
feedbacks, Kronecker product of emissions and stationary covariances;
both operands must be stationary). Every kernel is a node of an
expression tree: a base kernel is a leaf carrying its named parameters,
and a sum or product keeps its two operands. The tree is the only
kernel representation. One printer renders it as the canonical
``expression``, and ``parse_kernel`` reads the same algebra back from
strings such as
``"brownian(diffusion=0.1) + matern32(lengthscale=50, variance=1) * cosine(period=24, variance=1)"``.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy.linalg

from .errors import ConfigError, ParameterError, UnsupportedKernelError

__all__ = [
    "StateSpaceKernel",
    "DiscretizedTransition",
    "matern32",
    "cosine",
    "brownian",
    "add",
    "multiply",
    "discretize",
    "matrix_exponential",
    "prior_covariance",
    "parse_kernel",
]

# Tolerance for the symmetric/PSD checks on stationary covariances.
_PSD_TOL = 1e-10


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


@dataclass(frozen=True, eq=False)
class DiscretizedTransition:
    """Transition pair for one time step: A = expm(F dt) and the
    accumulated process noise Q over that step."""

    A: np.ndarray
    Q: np.ndarray
    dt: float


@dataclass(frozen=True, eq=False)
class StateSpaceKernel:
    """Immutable state-space form of a GP kernel.

    Attributes
    ----------
    state_dim : int
        Dimension L of the latent SDE state.
    feedback : ndarray, shape (L, L)
        Feedback matrix F of the SDE.
    emission : ndarray, shape (L,)
        Measurement vector h; the GP value is h^T x.
    stationary : bool
        Whether the kernel has a stationary covariance.
    stationary_cov : ndarray or None, shape (L, L)
        Stationary state covariance P_inf (stationary kernels only).
    initial_cov : ndarray, shape (L, L)
        Prior state covariance at the start of a stream: P_inf for
        stationary kernels, the kernel's own start rule otherwise.
    params : dict
        Named scalar parameters of a base kernel, in constructor order;
        empty for composites.
    kind : str
        What the node is: the constructor name of a base kernel
        (``"matern32"``, ``"cosine"``, ``"brownian"``), ``"+"`` for a
        sum or ``"*"`` for a product.
    parts : tuple or None
        The two operands of a sum or product (for nonstationary sums
        they drive the process-noise recursion); None for a base kernel.
    expression : str
        Canonical expression, printed from the tree, that rebuilds the
        kernel via :func:`parse_kernel`.
    """

    state_dim: int
    feedback: np.ndarray
    emission: np.ndarray
    stationary: bool
    stationary_cov: np.ndarray | None
    initial_cov: np.ndarray
    params: dict
    kind: str
    parts: tuple = field(default=None, repr=False)
    # Q(dt) rule for a nonstationary base kernel.
    noise_fn: Callable[[float], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        L = self.state_dim
        F = _as_readonly(self.feedback)
        h = _as_readonly(self.emission)
        if F.shape != (L, L):
            raise ParameterError(f"feedback must be ({L}, {L}), got {F.shape}")
        if h.shape != (L,):
            raise ParameterError(f"emission must have length {L}, got {h.shape}")
        if not (np.isfinite(F).all() and np.isfinite(h).all()):
            raise ParameterError("feedback and emission must be finite")
        object.__setattr__(self, "feedback", F)
        object.__setattr__(self, "emission", h)
        if self.stationary:
            if self.stationary_cov is None:
                raise ParameterError("stationary kernel requires a stationary covariance")
            P = _as_readonly(self.stationary_cov)
            if P.shape != (L, L):
                raise ParameterError(f"stationary covariance must be ({L}, {L}), got {P.shape}")
            if not np.isfinite(P).all():
                raise ParameterError("stationary covariance must be finite")
            scale = max(1.0, float(np.abs(P).max()))
            if np.abs(P - P.T).max() > _PSD_TOL * scale:
                raise ParameterError("stationary covariance must be symmetric")
            if np.linalg.eigvalsh(_sym(P)).min() < -_PSD_TOL * scale:
                raise ParameterError("stationary covariance must be positive semidefinite")
            object.__setattr__(self, "stationary_cov", P)
        elif self.stationary_cov is not None:
            raise ParameterError("nonstationary kernel cannot carry a stationary covariance")
        P0 = _as_readonly(self.initial_cov)
        if P0.shape != (L, L):
            raise ParameterError(f"initial covariance must be ({L}, {L}), got {P0.shape}")
        object.__setattr__(self, "initial_cov", P0)

    @property
    def expression(self) -> str:
        """The one printer of kernel trees, in the grammar of :func:`parse_kernel`.

        A sum inside a product is parenthesized, and so is a product on
        the right of a product: reading ``a * b * c`` builds
        ``(a * b) * c``, whose Kronecker factors round differently from
        ``a * (b * c)``.
        """
        if self.parts is None:
            args = ", ".join(f"{name}={value!r}" for name, value in self.params.items())
            return f"{self.kind}({args})"
        left, right = (part.expression for part in self.parts)
        if self.kind == "*":
            left = f"({left})" if self.parts[0].kind == "+" else left
            right = f"({right})" if self.parts[1].parts is not None else right
        return f"{left} {self.kind} {right}"

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"StateSpaceKernel({self.expression})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return multiply(self, other)


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ParameterError(f"{name} must be a positive finite number, got {value!r}")


def matern32(lengthscale: float, variance: float = 1.0) -> StateSpaceKernel:
    """Matern kernel with smoothness 3/2.

    k(tau) = variance * (1 + lam*tau) * exp(-lam*tau) with
    lam = sqrt(3) / lengthscale.
    """
    _require_positive(lengthscale=lengthscale, variance=variance)
    lengthscale = float(lengthscale)
    variance = float(variance)
    lam = math.sqrt(3.0) / lengthscale
    try:
        lam2 = lam**2
    except OverflowError:
        raise ParameterError(f"lengthscale {lengthscale!r} overflows lam^2") from None
    F = np.array([[0.0, 1.0], [-lam2, -2.0 * lam]])
    h = np.array([1.0, 0.0])
    P = np.diag([variance, lam2 * variance])
    return StateSpaceKernel(
        state_dim=2,
        feedback=F,
        emission=h,
        stationary=True,
        stationary_cov=P,
        initial_cov=P,
        params={"lengthscale": lengthscale, "variance": variance},
        kind="matern32",
    )


def cosine(period: float, variance: float = 1.0) -> StateSpaceKernel:
    """Cosine kernel k(tau) = variance * cos(2 pi tau / period).

    The state rotates deterministically at angular frequency
    w = 2 pi / period, so the discretized process noise is zero.
    """
    _require_positive(period=period, variance=variance)
    period = float(period)
    variance = float(variance)
    w = 2.0 * math.pi / period
    F = np.array([[0.0, -w], [w, 0.0]])
    h = np.array([1.0, 0.0])
    P = variance * np.eye(2)
    return StateSpaceKernel(
        state_dim=2,
        feedback=F,
        emission=h,
        stationary=True,
        stationary_cov=P,
        initial_cov=P,
        params={"period": period, "variance": variance},
        kind="cosine",
    )


def brownian(diffusion: float) -> StateSpaceKernel:
    """Brownian-motion kernel with the given diffusion rate.

    Nonstationary: the state starts at variance zero and accumulates
    Q(dt) = diffusion * dt per step. Captures drifting level changes.
    """
    _require_positive(diffusion=diffusion)
    diffusion = float(diffusion)
    return StateSpaceKernel(
        state_dim=1,
        feedback=np.zeros((1, 1)),
        emission=np.ones(1),
        stationary=False,
        stationary_cov=None,
        initial_cov=np.zeros((1, 1)),
        params={"diffusion": diffusion},
        kind="brownian",
        noise_fn=lambda dt, q=diffusion: np.array([[q * dt]]),
    )


def add(k1: StateSpaceKernel, k2: StateSpaceKernel) -> StateSpaceKernel:
    """Sum kernel: block-diagonal feedback, concatenated emission."""
    _check_kernel(k1)
    _check_kernel(k2)
    stationary = k1.stationary and k2.stationary
    P = scipy.linalg.block_diag(k1.stationary_cov, k2.stationary_cov) if stationary else None
    return StateSpaceKernel(
        state_dim=k1.state_dim + k2.state_dim,
        feedback=scipy.linalg.block_diag(k1.feedback, k2.feedback),
        emission=np.concatenate([k1.emission, k2.emission]),
        stationary=stationary,
        stationary_cov=P,
        initial_cov=scipy.linalg.block_diag(k1.initial_cov, k2.initial_cov),
        params={},
        kind="+",
        parts=(k1, k2),
    )


def multiply(k1: StateSpaceKernel, k2: StateSpaceKernel) -> StateSpaceKernel:
    """Product kernel via the Kronecker construction.

    F = F1 (+) F2 (Kronecker sum), h = h1 (x) h2, P_inf = P1 (x) P2.
    Requires both operands stationary; the product covariance is then
    k1(tau) * k2(tau).
    """
    _check_kernel(k1)
    _check_kernel(k2)
    if not (k1.stationary and k2.stationary):
        raise UnsupportedKernelError(
            "kernel multiplication requires two stationary operands"
        )
    I1 = np.eye(k1.state_dim)
    I2 = np.eye(k2.state_dim)
    F = np.kron(k1.feedback, I2) + np.kron(I1, k2.feedback)
    P = np.kron(k1.stationary_cov, k2.stationary_cov)
    return StateSpaceKernel(
        state_dim=k1.state_dim * k2.state_dim,
        feedback=F,
        emission=np.kron(k1.emission, k2.emission),
        stationary=True,
        stationary_cov=P,
        initial_cov=P,
        params={},
        kind="*",
        parts=(k1, k2),
    )


def _check_kernel(k):
    if not isinstance(k, StateSpaceKernel):
        raise ParameterError(f"expected a StateSpaceKernel, got {type(k).__name__}")


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix.

    Thin wrapper over scipy's scaling-and-squaring Pade implementation,
    kept as a seam so every transition computation funnels through one
    audited entry point.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"matrix exponential requires a square matrix, got shape {m.shape}")
    return scipy.linalg.expm(m)


def _process_noise(kernel: StateSpaceKernel, A: np.ndarray, dt: float) -> np.ndarray:
    if kernel.stationary:
        P = kernel.stationary_cov
        return P - A @ P @ A.T
    if kernel.noise_fn is not None:
        return np.asarray(kernel.noise_fn(dt), dtype=float)
    if kernel.parts is not None:
        blocks = []
        lo = 0
        for part in kernel.parts:
            hi = lo + part.state_dim
            blocks.append(_process_noise(part, A[lo:hi, lo:hi], dt))
            lo = hi
        return scipy.linalg.block_diag(*blocks)
    raise UnsupportedKernelError(
        f"kernel {kernel.expression} has no process-noise rule"
    )


def discretize(kernel: StateSpaceKernel, dt: float) -> DiscretizedTransition:
    """Transition pair (A, Q) for a step of length ``dt``.

    dt = 0 yields the identity transition with zero noise; negative dt
    is rejected.
    """
    _check_kernel(kernel)
    dt = float(dt)
    if not math.isfinite(dt) or dt < 0.0:
        raise ParameterError(f"time step must be finite and nonnegative, got {dt!r}")
    L = kernel.state_dim
    if dt == 0.0:
        return DiscretizedTransition(A=np.eye(L), Q=np.zeros((L, L)), dt=0.0)
    A = matrix_exponential(kernel.feedback * dt)
    Q = _sym(_process_noise(kernel, A, dt))
    return DiscretizedTransition(A=A, Q=Q, dt=dt)


def prior_covariance(kernel: StateSpaceKernel, tau: float) -> float:
    """Prior covariance k(tau) implied by the state-space form.

    Evaluates h^T expm(F tau) P_inf h; defined for stationary kernels
    only.
    """
    _check_kernel(kernel)
    if not kernel.stationary:
        raise UnsupportedKernelError(
            "prior covariance at a lag is defined for stationary kernels only"
        )
    tau = float(tau)
    if not math.isfinite(tau) or tau < 0.0:
        raise ParameterError(f"lag must be finite and nonnegative, got {tau!r}")
    h = kernel.emission
    A = matrix_exponential(kernel.feedback * tau)
    return float(h @ A @ kernel.stationary_cov @ h)


# --- kernel expression grammar ------------------------------------------

_CONSTRUCTORS = {
    "matern32": matern32,
    "cosine": cosine,
    "brownian": brownian,
}


def _leaf_values(kernel: StateSpaceKernel) -> list[float]:
    """Parameters of the base kernels of a tree, leaves left to right,
    each leaf's in constructor order."""
    if kernel.parts is None:
        return list(kernel.params.values())
    return [v for part in kernel.parts for v in _leaf_values(part)]


def _rebuild(kernel: StateSpaceKernel, values: Iterator[float]) -> StateSpaceKernel:
    """The tree of ``kernel`` with its leaf parameters taken from the
    iterator ``values``, in the order of :func:`_leaf_values`."""
    if kernel.parts is None:
        return _CONSTRUCTORS[kernel.kind](**{name: next(values) for name in kernel.params})
    left, right = (_rebuild(part, values) for part in kernel.parts)
    return add(left, right) if kernel.kind == "+" else multiply(left, right)


def parse_kernel(text: str) -> StateSpaceKernel:
    """Build a kernel from an expression string.

    The grammar is the kernel algebra itself: calls to ``matern32``,
    ``cosine`` and ``brownian`` with numeric (keyword) arguments,
    combined with ``+``, ``*`` and parentheses. ``*`` binds tighter
    than ``+``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("kernel expression must be a nonempty string")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"invalid kernel expression {text!r}: {exc.msg}") from None
    return _kernel_from_node(tree.body, text)


def _kernel_from_node(node: ast.AST, text: str) -> StateSpaceKernel:
    if isinstance(node, ast.BinOp):
        left = _kernel_from_node(node.left, text)
        right = _kernel_from_node(node.right, text)
        if isinstance(node.op, ast.Add):
            return add(left, right)
        if isinstance(node.op, ast.Mult):
            return multiply(left, right)
        raise ConfigError(f"unsupported operator in kernel expression {text!r}")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _CONSTRUCTORS:
            raise ConfigError(f"unknown kernel in expression {text!r}")
        ctor = _CONSTRUCTORS[node.func.id]
        args = [_number_from_node(a, text) for a in node.args]
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                raise ConfigError(f"** arguments are not allowed in kernel expression {text!r}")
            kwargs[kw.arg] = _number_from_node(kw.value, text)
        try:
            return ctor(*args, **kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad arguments in kernel expression {text!r}: {exc}") from None
    raise ConfigError(
        f"kernel expression {text!r} must consist of kernel calls combined with + and *"
    )


def _number_from_node(node: ast.AST, text: str) -> float:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_number_from_node(node.operand, text)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    raise ConfigError(f"kernel arguments must be numeric literals in {text!r}")
