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

Supported base kernels, each with its transition in closed form:

``matern32(lengthscale, variance)``
    F = [[0, 1], [-lam^2, -2 lam]], h = [1, 0], lam = sqrt(3)/lengthscale,
    P_inf = diag(variance, lam^2 variance),
    k(tau) = variance (1 + lam tau) exp(-lam tau),
    A(dt) = exp(-lam dt) [[1 + lam dt, dt], [-lam^2 dt, 1 - lam dt]].

``cosine(period, variance)``
    F = [[0, -w], [w, 0]], h = [1, 0], w = 2 pi / period,
    P_inf = variance I, k(tau) = variance cos(w tau). The transition is a
    rotation by w dt, so Q(dt) = 0.

``brownian(diffusion)``
    F = [0], h = [1], A(dt) = [1], Q(dt) = diffusion * dt, state variance
    0 at the start of a stream. Nonstationary.

Kernels combine under ``+`` (block stacking) and ``*`` (Kronecker sum of
feedbacks, Kronecker product of emissions and stationary covariances;
both operands must be stationary). The transition of a sum is the
block-diagonal of its operands' transitions, and that of a product is
their Kronecker product, because the two terms of a Kronecker sum
commute. One walk of the tree, :func:`_walk`, builds A(dt) this way for
:func:`discretize` and :func:`prior_covariance`; when asked it also
returns the derivatives of A, Q and the initial covariance with respect
to the logs of the leaf parameters, which give the exact likelihood
gradient of :func:`ssgpfa.kalman.log_likelihood_gradient`.

Every kernel is a node of an expression tree: a base kernel is a leaf
carrying its named parameters, and a sum or product keeps its two
operands. The tree is the only kernel representation. One printer
renders it as the canonical ``expression``, and ``parse_kernel`` reads
the same algebra back from strings such as
``"brownian(diffusion=0.1) + matern32(lengthscale=50, variance=1) * cosine(period=24, variance=1)"``.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, ParameterError, UnsupportedKernelError

__all__ = [
    "StateSpaceKernel",
    "DiscretizedTransition",
    "matern32",
    "cosine",
    "brownian",
    "add",
    "multiply",
    "discretize",
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


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of 2-d blocks."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return out


@dataclass(frozen=True, eq=False)
class DiscretizedTransition:
    """Transition pair for one time step: A = expm(F dt) and the
    accumulated process noise Q over that step.

    ``dA`` and ``dQ`` are None unless asked for: then they hold the
    derivatives of A and Q with respect to the logs of the kernel's leaf
    parameters, stacked as ``(n_params, L, L)`` in the order of the
    tree's leaves, each leaf's in constructor order.
    """

    A: np.ndarray
    Q: np.ndarray
    dt: float
    dA: np.ndarray | None = None
    dQ: np.ndarray | None = None


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
    )


def add(k1: StateSpaceKernel, k2: StateSpaceKernel) -> StateSpaceKernel:
    """Sum kernel: block-diagonal feedback, concatenated emission."""
    _check_kernel(k1)
    _check_kernel(k2)
    stationary = k1.stationary and k2.stationary
    P = _block_diag(k1.stationary_cov, k2.stationary_cov) if stationary else None
    return StateSpaceKernel(
        state_dim=k1.state_dim + k2.state_dim,
        feedback=_block_diag(k1.feedback, k2.feedback),
        emission=np.concatenate([k1.emission, k2.emission]),
        stationary=stationary,
        stationary_cov=P,
        initial_cov=_block_diag(k1.initial_cov, k2.initial_cov),
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


class _Walk(NamedTuple):
    """What :func:`_walk` returns for one node of a kernel tree. The
    ``d*`` entries are None unless asked for, and ``Q`` is None where
    the node's parent has no use for it."""

    A: np.ndarray
    Q: np.ndarray | None
    dA: np.ndarray | None
    dQ: np.ndarray | None
    dP0: np.ndarray | None


def _matern32_leaf(kernel, dt, grad):
    lam = math.sqrt(3.0) / kernel.params["lengthscale"]
    x = lam * dt
    e = math.exp(-x)
    xe = x * e
    A = np.array([[(1.0 + x) * e, dt * e], [-lam * xe, (1.0 - x) * e]])
    if not grad:
        return _Walk(A, None, None, None, None)
    # d/dlog(lengthscale) = -lam d/dlam; the variance leaves A alone
    dA = np.zeros((2, 2, 2))
    dA[0] = [[xe * x, xe * dt], [lam * xe * (2.0 - x), xe * (2.0 - x)]]
    P = kernel.stationary_cov
    dP0 = np.zeros((2, 2, 2))
    dP0[0, 1, 1] = -2.0 * P[1, 1]
    dP0[1] = P
    return _Walk(A, None, dA, None, dP0)


def _cosine_leaf(kernel, dt, grad):
    phi = 2.0 * math.pi / kernel.params["period"] * dt
    if not math.isfinite(phi):
        raise NumericalError(f"cosine phase over a step of {dt!r} is not finite")
    c, s = math.cos(phi), math.sin(phi)
    A = np.array([[c, -s], [s, c]])
    if not grad:
        return _Walk(A, None, None, None, None)
    # d/dlog(period) = -w d/dw; the variance scales P_inf only
    dA = np.zeros((2, 2, 2))
    dA[0] = [[phi * s, phi * c], [-phi * c, phi * s]]
    dP0 = np.zeros((2, 2, 2))
    dP0[1] = kernel.stationary_cov
    return _Walk(A, None, dA, None, dP0)


def _brownian_leaf(kernel, dt, grad):
    Q = np.array([[kernel.params["diffusion"] * dt]])
    if not grad:
        return _Walk(np.ones((1, 1)), Q, None, None, None)
    # Q is linear in the diffusion, so dQ/dlog(diffusion) = Q
    return _Walk(np.ones((1, 1)), Q, np.zeros((1, 1, 1)), Q[None], np.zeros((1, 1, 1)))


_LEAVES = {"matern32": _matern32_leaf, "cosine": _cosine_leaf, "brownian": _brownian_leaf}


def _stack_block_diag(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Derivatives of ``_block_diag(m1, m2)`` from the stacked derivatives
    of its blocks: the first block's parameters, then the second's."""
    (n1, l1, _), (n2, l2, _) = d1.shape, d2.shape
    out = np.zeros((n1 + n2, l1 + l2, l1 + l2))
    out[:n1, :l1, :l1] = d1
    out[n1:, l1:, l1:] = d2
    return out


def _stack_kron(d1: np.ndarray, m1: np.ndarray, d2: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Derivatives of ``kron(m1, m2)`` from the stacked derivatives of
    its factors: the first factor's parameters, then the second's."""
    L = m1.shape[0] * m2.shape[0]
    return np.concatenate([np.einsum("nij,kl->nikjl", d1, m2).reshape(-1, L, L),
                           np.einsum("ij,nkl->nikjl", m1, d2).reshape(-1, L, L)])


def _walk(kernel: StateSpaceKernel, dt: float, grad: bool, need_q: bool = True) -> _Walk:
    """A(dt) of a kernel tree in closed form, with Q(dt) when ``need_q``.

    Leaves have closed-form transitions, a sum's transition is the
    block-diagonal of its operands' and a product's their Kronecker
    product. Q keeps one rule per node: P_inf - A P_inf A^T for a
    stationary node, diffusion * dt for a Brownian leaf and the
    block-diagonal of the operands' rules for a nonstationary sum.
    With ``grad`` the walk also returns dA, dQ and the derivative of the
    initial covariance dP0 with respect to the logs of the leaf
    parameters, stacked as ``(n_params, L, L)``.
    """
    if kernel.parts is None:
        if kernel.kind not in _LEAVES:
            raise UnsupportedKernelError(f"kernel {kernel.kind!r} has no closed-form transition")
        A, Q, dA, dQ, dP0 = _LEAVES[kernel.kind](kernel, dt, grad)
    else:
        left, right = (_walk(part, dt, grad, not kernel.stationary) for part in kernel.parts)
        dA = dQ = dP0 = None
        if kernel.kind == "+":
            A = _block_diag(left.A, right.A)
            Q = None if kernel.stationary else _block_diag(left.Q, right.Q)
            if grad:
                dA = _stack_block_diag(left.dA, right.dA)
                dP0 = _stack_block_diag(left.dP0, right.dP0)
                if not kernel.stationary:
                    dQ = _stack_block_diag(left.dQ, right.dQ)
        else:
            A = np.kron(left.A, right.A)
            Q = None
            if grad:
                P1, P2 = (part.stationary_cov for part in kernel.parts)
                dA = _stack_kron(left.dA, left.A, right.dA, right.A)
                dP0 = _stack_kron(left.dP0, P1, right.dP0, P2)
    if kernel.stationary and need_q:
        P = kernel.stationary_cov
        Q = P - A @ P @ A.T
        if grad:
            X = dA @ (P @ A.T)
            dQ = dP0 - X - X.transpose(0, 2, 1) - A @ dP0 @ A.T
    return _Walk(A, Q, dA, dQ, dP0)


def discretize(kernel: StateSpaceKernel, dt: float, *, grad: bool = False) -> DiscretizedTransition:
    """Transition pair (A, Q) for a step of length ``dt``, in closed form.

    dt = 0 yields the identity transition with zero noise; negative dt
    is rejected. With ``grad`` the pair carries its derivatives with
    respect to the logs of the leaf parameters (see
    :class:`DiscretizedTransition`).
    """
    _check_kernel(kernel)
    dt = float(dt)
    if not math.isfinite(dt) or dt < 0.0:
        raise ParameterError(f"time step must be finite and nonnegative, got {dt!r}")
    w = _walk(kernel, dt, grad)
    dQ = None if w.dQ is None else (w.dQ + w.dQ.transpose(0, 2, 1)) / 2.0
    return DiscretizedTransition(A=w.A, Q=_sym(w.Q), dt=dt, dA=w.dA, dQ=dQ)


def prior_covariance(kernel: StateSpaceKernel, tau: float) -> float:
    """Prior covariance k(tau) implied by the state-space form.

    Evaluates h^T A(tau) P_inf h; defined for stationary kernels only.
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
    A = _walk(kernel, tau, False, need_q=False).A
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
