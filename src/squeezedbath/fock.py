"""Truncated Fock space: operators and canonical oscillator states.

Everything lives on the levels 0..cutoff-1 as dense matrices: operators
are complex, and a state keeps the dtype it was built or evolved in (a
real state evolved on a tagged bath's frame route stays float64).
Units: hbar = k_B = 1. Frequencies and decay rates share one time unit,
so energies come out in units of hbar*kappa when time is measured in
1/kappa.

Every state constructor re-checks that the top two Fock levels carry
negligible population; a truncation that clips real weight raises
CutoffLeak instead of silently renormalising it away.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Union

import numpy as np

from .errors import CutoffLeak, NotUnitary

DEFAULT_CUTOFF = 40

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_UNITARY = 1e-9
TOL_LEAK = 1e-8


@dataclasses.dataclass(frozen=True)
class HilbertDim:
    """Dimension of the truncated oscillator space (levels 0..cutoff-1)."""

    cutoff: int

    def __post_init__(self) -> None:
        if isinstance(self.cutoff, bool) or not isinstance(
            self.cutoff, (int, np.integer)
        ):
            raise TypeError(f"cutoff must be an integer, got {self.cutoff!r}")
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")


DimLike = Union[int, HilbertDim]


def as_dim(dim: DimLike) -> HilbertDim:
    """Coerce an int into a HilbertDim; pass HilbertDim through."""
    if isinstance(dim, HilbertDim):
        return dim
    return HilbertDim(dim)


@dataclasses.dataclass(frozen=True)
class Operator:
    """Square complex matrix tied to a HilbertDim. Entries must be finite.

    The wrapped array is read-only; build a new Operator instead of
    mutating in place.
    """

    dim: HilbertDim
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, copy=True)
        n = self.dim.cutoff
        if m.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def dagger(self) -> "Operator":
        return Operator(self.dim, self.matrix.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Operator(self.dim, self.matrix @ other.matrix)


@functools.lru_cache(maxsize=8)
def _packing(n: int, sectors: int) -> tuple:
    """Index tables of the packed storage at cutoff n: per sector (all
    levels if sectors is 1, the even then the odd levels if 2) its levels,
    the flat places in an n x n matrix of its upper triangle, diagonal
    included, row by row, and of their mirrors, and where its diagonal
    sits in its row. A packed row is the sectors' triangles end to end."""
    tables = []
    for levels in (np.arange(n),) if sectors == 1 else (np.arange(0, n, 2),
                                                         np.arange(1, n, 2)):
        i, j = np.triu_indices(len(levels))
        diag = np.flatnonzero(i == j)
        tables.append((levels, levels[i] * n + levels[j], levels[j] * n + levels[i], diag))
    return tuple(tables)


class DensityMatrix:
    """Validated state: Hermitian, unit trace and positive within tolerance.

    Validated once, at construction or in evolve's gate (_packed);
    instances are immutable. A constructed state's matrix is complex and
    its own, kept as it is. A gated one keeps its route's dtype, float64
    for a real state, and is stored packed: the upper triangle, diagonal
    included, of each parity sector (the even and the odd levels when
    every entry between them is exactly 0, else all levels as one), as
    read-only views of one row of a stack evolve shares between
    snapshots. Its .matrix is assembled afresh on each access; its
    populations and trace_error read the row in place. The sorted
    eigenvalues are cached because most downstream quantities (entropy,
    passive energy, trace distances) are spectral.
    """

    __slots__ = ("dim", "_blocks", "_eigs")

    def __init__(self, op, *, _spectrum=None):
        if isinstance(op, np.ndarray):
            op = Operator(HilbertDim(op.shape[0]), op)
        m = op.matrix
        herm = np.abs(m - m.conj().T).max()
        if herm > TOL_HERM:
            raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
        tr_err = abs(m.trace() - 1.0)
        if tr_err > TOL_TRACE:
            raise ValueError(f"trace deviates from 1 by {tr_err:.3e}")
        if _spectrum is None:
            eigs = np.linalg.eigvalsh(m)
        else:
            # trusted caller (unitary conjugation of a known diagonal)
            eigs = np.sort(np.asarray(_spectrum, dtype=float))
        if eigs[0] < -TOL_PSD:
            raise ValueError(f"negative eigenvalue {eigs[0]:.3e}")
        self.dim, self._blocks, self._eigs = op.dim, (op.matrix,), eigs

    @classmethod
    def _gated(cls, dim: HilbertDim, matrix, eigs: np.ndarray):
        """A state already gated, with eigs (ascending) as its spectrum;
        nothing is re-checked. matrix is an n x n matrix, stored whole, or
        a tuple of one packed row's sector views (_packed); either is kept,
        not copied."""
        state = object.__new__(cls)
        blocks = matrix if isinstance(matrix, tuple) else (matrix,)
        state.dim, state._blocks, state._eigs = dim, blocks, eigs
        return state

    @classmethod
    def _packed(cls, dim: HilbertDim, x: np.ndarray, sectors: int,
                eigs: np.ndarray) -> list:
        """The states of evolve's gated snapshots x, a (b, n, n) stack of
        exactly Hermitian matrices with spectra eigs: x packed by
        _packing(n, sectors) into one read-only (b, m) stack, each state
        holding its row's sector views."""
        n = dim.cutoff
        tables = _packing(n, sectors)
        upper = np.concatenate([t[1] for t in tables])
        packed = x.reshape(len(x), n * n).take(upper, axis=1)  # C-ordered rows
        packed.setflags(write=False)
        ends = np.cumsum([len(t[1]) for t in tables]).tolist()
        columns = [packed[:, a:b] for a, b in zip([0] + ends, ends)]  # per sector
        return [cls._gated(dim, rows, e) for rows, e in zip(zip(*columns), eigs)]

    @property
    def matrix(self) -> np.ndarray:
        """The n x n density matrix. A packed state returns a fresh
        read-only copy: each sector's triangle and its conjugate mirror,
        zero between sectors."""
        first = self._blocks[0]
        if first.ndim == 2:
            return first
        n = self.dim.cutoff
        m = np.zeros(n * n, dtype=first.dtype)
        for row, (_, upper, lower, _) in zip(self._blocks, _packing(n, len(self._blocks))):
            m[lower] = row.conj()
            m[upper] = row
        m = m.reshape(n, n)
        m.setflags(write=False)
        return m

    def _diagonal(self) -> np.ndarray:
        """The diagonal in level order and the stored dtype; a packed
        state's is read off its row, with no assembly."""
        first = self._blocks[0]
        if first.ndim == 2:
            return first.diagonal()
        n = self.dim.cutoff
        d = np.empty(n, dtype=first.dtype)
        for row, (levels, _, _, diag) in zip(self._blocks, _packing(n, len(self._blocks))):
            d[levels] = row[diag]
        return d

    @property
    def populations(self) -> np.ndarray:
        """Fock-level populations: the real part of the diagonal."""
        return self._diagonal().real

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return self._eigs.copy()

    @property
    def min_eig(self) -> float:
        return float(self._eigs[0])

    @property
    def trace_error(self) -> float:
        return float(abs(self._diagonal().sum() - 1.0))

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(cutoff={self.dim.cutoff})"


def real_expectation(rho: DensityMatrix, obs) -> float:
    """Tr[rho * obs] for a Hermitian observable, as a real number."""
    m = obs.matrix if isinstance(obs, Operator) else np.asarray(obs)
    return float(np.einsum("ij,ji->", rho.matrix, m).real)


def _check_top_levels(populations: np.ndarray, dim: HilbertDim, what: str) -> None:
    top = float(np.real(populations[-2:]).sum())
    if top > TOL_LEAK:
        raise CutoffLeak(
            f"{what}: top-two-level population {top:.3e} exceeds "
            f"{TOL_LEAK:g} at cutoff {dim.cutoff}"
        )


def _check_unitary(u: np.ndarray, what: str) -> None:
    """Raise NotUnitary when U^dag U departs from 1 by more than TOL_UNITARY."""
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if err > TOL_UNITARY:
        raise NotUnitary(f"{what} lost unitarity: {err:.3e}")


def annihilation(dim: DimLike = DEFAULT_CUTOFF) -> Operator:
    """Lowering operator a with sqrt(n) on the first superdiagonal."""
    d = as_dim(dim)
    n = d.cutoff
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1, n))
    return Operator(d, m)


def number_operator(dim: DimLike = DEFAULT_CUTOFF) -> Operator:
    d = as_dim(dim)
    return Operator(d, np.diag(np.arange(d.cutoff, dtype=complex)))


def harmonic_hamiltonian(omega: float, dim: DimLike = DEFAULT_CUTOFF) -> Operator:
    """H = omega * a^dag a (the n*omega ladder; zero-point offset dropped)."""
    d = as_dim(dim)
    return Operator(d, np.diag(omega * np.arange(d.cutoff, dtype=complex)))


def squeeze_operator(r: float, dim: DimLike = DEFAULT_CUTOFF) -> Operator:
    """Single-mode squeeze exp[(r/2)(a^2 - a^dag^2)], real phase convention.

    The exponent is real antisymmetric, so the result is real orthogonal up
    to rounding; unitarity is still checked against TOL_UNITARY (NotUnitary).
    Raises CutoffLeak when the squeezed vacuum no longer fits under the cutoff.
    """
    d = as_dim(dim)
    s = _squeeze_matrix(float(r), d.cutoff)
    _check_unitary(s, "squeeze operator")
    _check_top_levels(s[:, 0] ** 2, d, f"squeeze_operator(r={r})")
    return Operator(d, s)


def _scipy() -> tuple:
    """scipy.sparse and scipy.sparse.linalg, loaded on first need: the custom
    sparse route (superoperator, steady_state, the quadrature sigma_series)."""
    import scipy.sparse
    import scipy.sparse.linalg
    return scipy.sparse, scipy.sparse.linalg


@functools.lru_cache(maxsize=8)
def _squeeze_matrix(r: float, n: int) -> np.ndarray:
    """Real matrix of the squeeze unitary at cutoff n (cached; treat as read-only).

    The generator G = (r/2)(a^2 - a^dag^2) couples only levels of equal
    parity. On each parity block it is a real antisymmetric tridiagonal T
    with off-diagonal b = (r/2) sqrt(m(m-1)) between levels m-2 and m. With
    D = diag(i^j) over the block index j, D^-1 T D = iB for the real
    symmetric tridiagonal B with zero diagonal and off-diagonal b, so one
    dense symmetric eigensolve (numpy's eigh) B = Q diag(lam) Q^T gives
    exp(T) = D Q diag(e^(i lam)) Q^T D^-1. Its (j, k) entry is +C, -S, -C
    or +S for j - k = 0, 1, 2, 3 mod 4, with C = Q cos(lam) Q^T and
    S = Q sin(lam) Q^T. C vanishes at odd j - k and S at even j - k, so
    only C between block indices of equal parity (levels 4 apart) and S
    between opposite ones are formed; with j = 2a or 2a + 1 the sign is
    (-1)^(a - b), folded into the rows of Q. Entries between levels of
    opposite parity are exactly zero. At r = 0 it is the identity, built
    without an eigensolve. A non-finite r raises ValueError.
    """
    if not math.isfinite(r):
        raise ValueError(f"squeeze parameter r must be finite, got {r}")
    if r == 0.0:
        out = np.eye(n)
        out.setflags(write=False)
        return out
    out = np.zeros((n, n))
    for parity in (0, 1):
        m = np.arange(parity + 2, n, 2, dtype=float)
        b = 0.5 * r * np.sqrt(m * (m - 1.0))
        lam, q = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
        q[2::4] *= -1.0
        q[3::4] *= -1.0
        qe, qo = q[0::2], q[1::2]  # levels parity + 4a and parity + 2 + 4a
        lo, hi = slice(parity, None, 4), slice(parity + 2, None, 4)
        out[lo, lo] = (qe * np.cos(lam)) @ qe.T
        out[hi, hi] = (qo * np.cos(lam)) @ qo.T
        s = (qe * np.sin(lam)) @ qo.T
        out[lo, hi] = s
        out[hi, lo] = -s.T
    out.setflags(write=False)
    return out


def squeezed_thermal_populations(nbar: float, r: float, dim: DimLike) -> np.ndarray:
    """Fock-level populations of S(r) rho_thermal(nbar) S(r)^dag, renormalised.

    The untruncated photon-number distribution, cut at the cutoff. With
    n_b = nbar cosh 2r + sinh^2 r and m_b = (nbar + 1/2) sinh 2r, its
    generating function [(1 + n_b(1 - z))^2 - m_b^2 (1 - z)^2]^(-1/2) gives
    (k + 1) a p_{k+1} = -b (k + 1/2) p_k - c k p_{k-1} from p_0 = a^(-1/2),
    with a = (1 + n_b)^2 - m_b^2, b = 2(m_b^2 - (1 + n_b) n_b) and
    c = n_b^2 - m_b^2. Those differences cancel; with nu = nbar + 1/2 and
    w = nu (cosh 2r - 1) = 2 nu sinh^2 r they are exactly
    a = (nbar + 1)^2 + w, b = -2 nbar (nbar + 1) and c = nbar^2 - w, which
    is how they are formed. So b does not depend on r, and a squeezed
    vacuum's odd levels come out exactly zero. At r = 0 this is the
    geometric law p_k ~ (nbar/(nbar+1))^k.

    Raises CutoffLeak when the mass past the cutoff or on the top two
    levels exceeds TOL_LEAK, or when w overflows (no cutoff holds that
    state), and ValueError for a negative or non-finite nbar or a
    non-finite r.
    """
    d = as_dim(dim)
    n = d.cutoff
    if not 0 <= nbar < math.inf:
        raise ValueError(f"nbar must be nonnegative and finite, got {nbar}")
    if not math.isfinite(r):
        raise ValueError(f"squeeze parameter r must be finite, got {r}")
    what = f"squeezed_thermal_populations(nbar={nbar}, r={r})"
    if nbar == 0 and r == 0:  # the exact vacuum fits any cutoff
        p = np.zeros(n)
        p[0] = 1.0
        return p
    if r == 0:
        q = nbar / (nbar + 1.0)
        p = (1.0 - q) * q ** np.arange(n)
    else:
        try:
            w = 2.0 * (nbar + 0.5) * math.sinh(r) ** 2
        except OverflowError:
            w = math.inf
        a = (nbar + 1.0) * (nbar + 1.0) + w
        if a == math.inf:
            raise CutoffLeak(f"{what}: the squeezing overflows; no cutoff holds it")
        b = -2.0 * nbar * (nbar + 1.0) / a  # b/a and c/a are bounded: no overflow
        c = (nbar * nbar - w) / a
        p = [0.0, a**-0.5]  # p_{-1}, p_0
        for k in range(n - 1):
            p.append(-(b * (k + 0.5) * p[-1] + c * k * p[-2]) / (k + 1))
        p = np.array(p[1:])
    tail = 1.0 - p.sum()  # the mass past the cutoff
    if tail > TOL_LEAK:
        raise CutoffLeak(f"{what}: tail mass {tail:.3e} beyond cutoff {n}")
    p /= p.sum()
    _check_top_levels(p, d, what)
    return p


def thermal_populations(nbar: float, dim: DimLike) -> np.ndarray:
    """Renormalised geometric level populations p_n ~ (nbar/(nbar+1))^n:
    squeezed_thermal_populations at r = 0, with its CutoffLeak gates."""
    return squeezed_thermal_populations(nbar, 0.0, dim)


def thermal_state(nbar: float, dim: DimLike = DEFAULT_CUTOFF) -> DensityMatrix:
    """Gibbs state of the harmonic ladder with mean occupation nbar."""
    d = as_dim(dim)
    p = thermal_populations(nbar, d)
    return DensityMatrix(Operator(d, np.diag(p.astype(complex))), _spectrum=p)


def coherent_state(alpha: complex, dim: DimLike = DEFAULT_CUTOFF) -> DensityMatrix:
    """Projector onto the coherent state with amplitude alpha.

    A non-finite alpha raises ValueError, and a weight clipped by the
    cutoff above TOL_LEAK CutoffLeak.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"coherent_state: alpha must be finite, got {alpha}")
    d = as_dim(dim)
    n = d.cutoff
    c = np.zeros(n, dtype=complex)
    mod = abs(alpha)
    c[0] = math.exp(-0.5 * mod * mod)  # 0 once |alpha|^2 overflows: all clipped
    for k in range(1, n):
        c[k] = c[k - 1] * alpha / math.sqrt(k)
    norm = float(np.vdot(c, c).real)
    if 1.0 - norm > TOL_LEAK:
        raise CutoffLeak(
            f"coherent_state(alpha={alpha}): clipped weight {1.0 - norm:.3e}"
        )
    c /= math.sqrt(norm)
    pops = np.abs(c) ** 2
    _check_top_levels(pops, d, f"coherent_state(alpha={alpha})")
    spectrum = np.zeros(n)
    spectrum[0] = 1.0
    return DensityMatrix(Operator(d, np.outer(c, c.conj())), _spectrum=spectrum)


def number_state(level: int, dim: DimLike = DEFAULT_CUTOFF) -> DensityMatrix:
    """Projector onto the Fock level |level>."""
    d = as_dim(dim)
    if not 0 <= level < d.cutoff:
        raise ValueError(f"level {level} outside 0..{d.cutoff - 1}")
    m = np.zeros((d.cutoff, d.cutoff), dtype=complex)
    m[level, level] = 1.0
    spectrum = np.zeros(d.cutoff)
    spectrum[0] = 1.0
    # no leak check: a Fock projector is exact at any cutoff that contains it
    return DensityMatrix(Operator(d, m), _spectrum=spectrum)


def squeezed_thermal_state(
    nbar: float, r: float, dim: DimLike = DEFAULT_CUTOFF
) -> DensityMatrix:
    """S(r) rho_thermal(nbar) S(r)^dag; at r = 0 thermal_state(nbar, dim).

    Mean occupation is nbar + (2 nbar + 1) sinh^2(r). The spectrum equals
    the thermal one (unitary conjugation), which the validator reuses.
    """
    d = as_dim(dim)
    if r == 0:
        return thermal_state(nbar, d)
    p = thermal_populations(nbar, d)
    s = _squeeze_matrix(float(r), d.cutoff)
    m = (s * p) @ s.T  # s @ diag(p) @ s.T without forming the diagonal
    _check_top_levels(np.diag(m), d, f"squeezed_thermal_state(nbar={nbar}, r={r})")
    return DensityMatrix(Operator(d, m.astype(complex)), _spectrum=p)
