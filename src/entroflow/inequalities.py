"""Entropy-inequality checks on random or hand-built multipartite states.

Three checks live here: strong subadditivity on tripartite states, the
average-pairwise-correlation bound it implies for N >= 3 subsystems, and
the nonnegative relative-entropy identity obeyed by any evolution that
starts from a Gibbs state (possibly with a Hamiltonian quench).

Every check takes a plain matrix and its factor dimensions, one state or,
unchanged, a stack of them, with one batched partial trace and eigensolve
per entropy; the identity runs in H_i's eigenbasis, where the Gibbs start
diag(p) is read off its row p.  A stack's report holds one entry per state
in each field.  The states are trusted as density operators, as everywhere
in ``states``, whose validator is for a matrix from outside the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch
from .qmath import dagger, kron, partial_trace, scalar_or_stack, trace
from .states import (
    HamiltonianSpec,
    gibbs_divergence,
    gibbs_populations,
    spectral_entropy,
    subsystem_entropy,
    von_neumann_entropy,
)

# identity checks and inequality slacks tolerate double-precision
# eigensolver noise at the dimensions used here (d <= 64)
SLACK_TOL = 1e-9
IDENTITY_TOL = 1e-9
# floor on the Gibbs-evolution right-hand side, which is a relative
# entropy and so nonnegative up to rounding
RHS_TOL = 1e-10


@dataclass(frozen=True)
class SlackReport:
    """Outcome of one inequality check: passes iff slack = rhs - lhs >= -SLACK_TOL."""

    lhs: float
    rhs: float
    slack: float
    passed: bool

    @classmethod
    def compare(cls, lhs: float, rhs: float) -> "SlackReport":
        slack = rhs - lhs
        return cls(lhs=lhs, rhs=rhs, slack=slack, passed=slack >= -SLACK_TOL)


@dataclass(frozen=True)
class GibbsEvolutionReport:
    """Both sides of the Gibbs-evolution identity.

    The relative entropy of the final state with respect to the initial
    Gibbs state equals beta*dU - dS - beta*tr(rho_f dH), the right-hand
    side rhs, which is nonnegative; identity_gap is the absolute difference
    of the two evaluations.
    """

    relative_entropy_lhs: float
    beta_du: float
    ds: float
    beta_tr_rhof_dh: float
    rhs: float
    identity_gap: float


@dataclass(frozen=True)
class AncillaChannel:
    """Unitary on system (x) ancilla followed by discarding the ancilla.

    A stack of N channels holds N unitaries (N, D, D) and a stack of N
    ancilla density matrices (N, d, d); channel t acts on state t of a
    stack.
    """

    unitary: np.ndarray
    ancilla: np.ndarray

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """The system's state after the channel, symmetrized so that it is
        exactly Hermitian."""
        d_sys = matrix.shape[-1]
        d_anc = self.ancilla.shape[-1]
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape[-2:] != (d_sys * d_anc, d_sys * d_anc):
            raise DimensionMismatch(
                f"unitary shape {u.shape} != system*ancilla dim {d_sys * d_anc}"
            )
        joint = u @ kron(matrix, self.ancilla) @ dagger(u)
        reduced = partial_trace(joint, (d_sys, d_anc), [0])
        return (reduced + dagger(reduced)) / 2


def check_ssa(matrix: np.ndarray, dims, i: int, j: int, k: int) -> SlackReport:
    """Strong subadditivity on a tripartite state: S_i + S_j <= S_ik + S_jk."""
    if len(dims) != 3:
        raise DimensionMismatch(f"need exactly 3 factors, got dims {tuple(dims)}")
    if sorted((i, j, k)) != [0, 1, 2]:
        raise DimensionMismatch(f"(i, j, k) must be a permutation of (0, 1, 2), got {(i, j, k)}")
    s_i = subsystem_entropy(matrix, dims, [i])
    s_j = subsystem_entropy(matrix, dims, [j])
    s_ik = subsystem_entropy(matrix, dims, [i, k])
    s_jk = subsystem_entropy(matrix, dims, [j, k])
    return SlackReport.compare(lhs=s_i + s_j, rhs=s_ik + s_jk)


def average_correlation_bound(matrix: np.ndarray, dims) -> SlackReport:
    """Mean pairwise mutual information <= mean single-party entropy.

    Aggregates the strong-subadditivity inequalities over all pairs of an
    N-party state (N >= 3): low average entropy forces low average two-body
    correlation.
    """
    n = len(dims)
    if n < 3:
        raise DimensionMismatch(f"bound needs >= 3 factors, got dims {tuple(dims)}")
    singles = [subsystem_entropy(matrix, dims, [i]) for i in range(n)]
    pair_mi = []
    for i, j in combinations(range(n), 2):
        s_ij = subsystem_entropy(matrix, dims, [i, j])
        pair_mi.append(singles[i] + singles[j] - s_ij)
    # one row of terms per state, so each mean sums exactly as a lone state's
    lhs = np.mean(np.stack(pair_mi, axis=-1), axis=-1)
    rhs = np.mean(np.stack(singles, axis=-1), axis=-1)
    return SlackReport.compare(lhs=scalar_or_stack(lhs), rhs=scalar_or_stack(rhs))


def gibbs_evolution_identity(
    h_i: HamiltonianSpec,
    beta,
    channel: AncillaChannel,
    h_f: np.ndarray,
) -> GibbsEvolutionReport:
    """Evaluate both sides of the identity for a Gibbs-launched evolution,
    in the eigenbasis of H_i.

    The system starts in exp(-beta H_i)/Z = diag(p), p the Gibbs row of
    ``h_i``, evolves through ``channel`` (unitary with an ancilla, ancilla
    discarded -- trace preserving by construction), and is metered against
    ``h_f``, the final Hamiltonian as a Hermitian matrix in that basis.  The
    report carries S(rho_f || rho_i) next to beta*dU - dS - beta*tr(rho_f
    dH); the two are equal for any channel and any quench, and both are
    nonnegative.  The identity holds in every basis: an H_i given in another
    is passed as its levels, with H_f and the unitary moved into its
    eigenframe.  With stacked levels, an array of betas and stacks of
    channels and of H_f, trial t uses entry t of each.
    """
    h_f = np.asarray(h_f)
    if h_f.shape[-2:] != (h_i.dim, h_i.dim):
        raise DimensionMismatch(f"final Hamiltonian shape {h_f.shape} != initial dim {h_i.dim}")
    # rho_i is diag(p): its energy, entropy and ln Z are read off p
    p = gibbs_populations(h_i, beta)
    rho_f = channel.apply(p[..., None] * np.eye(h_i.dim))

    u_i = scalar_or_stack((p * h_i.levels).sum(-1))
    u_f = trace(rho_f @ h_f).real
    # tr(rho_f H_i) from the diagonal of rho_f: no d x d H_i is formed
    e_fi = scalar_or_stack((np.diagonal(rho_f, axis1=-2, axis2=-1).real * h_i.levels).sum(-1))
    s_f = von_neumann_entropy(rho_f)
    ds = s_f - spectral_entropy(p)
    beta_du = beta * (u_f - u_i)
    beta_tr_rhof_dh = beta * (u_f - e_fi)
    rhs = beta_du - ds - beta_tr_rhof_dh

    lhs = gibbs_divergence(e_fi, s_f, h_i, beta, p)
    return GibbsEvolutionReport(
        relative_entropy_lhs=lhs,
        beta_du=beta_du,
        ds=ds,
        beta_tr_rhof_dh=beta_tr_rhof_dh,
        rhs=rhs,
        identity_gap=abs(lhs - rhs),
    )
