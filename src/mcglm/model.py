"""Model specification and the theta = (beta, lambda) parameter layout."""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .functions import CovLinkSpec, LinkSpec, VarianceSpec
from .matpred import MatrixPredictor, unit_partition


def rho_index_pairs(R):
    """(row, col) pairs of the lower triangle of Sigma_b, stacked by columns."""
    return [(r, c) for c in range(R - 1) for r in range(c + 1, R)]


@dataclass(frozen=True)
class ResponseSpec:
    """One response: link, variance family, covariance link, design, predictor."""

    name: str
    link: LinkSpec
    variance: VarianceSpec
    covlink: CovLinkSpec
    design: np.ndarray
    predictor: MatrixPredictor
    power_value: float = 1.0  # fixed value, or the initial value when estimated

    def __post_init__(self):
        design = np.atleast_2d(np.asarray(self.design, dtype=float))
        object.__setattr__(self, "design", design)
        if design.shape[0] != self.predictor.dim:
            raise DomainError(
                f"response {self.name!r}: design has {design.shape[0]} rows "
                f"but predictor dimension is {self.predictor.dim}"
            )
        if design.shape[1] == 0:
            raise DomainError(f"response {self.name!r}: design has no columns")

    @property
    def k(self):
        return self.design.shape[1]

    @property
    def power_free(self):
        return self.variance.has_power and not self.variance.power_known


@dataclass(frozen=True)
class UnitGroup:
    """The independent units of one size m.

    ``index`` holds their observation indices (n_units, m); ``joint`` the
    positions of their joint blocks in a stacked length-NR vector
    (n_units, R m), response by response; ``predictors`` each response's
    matrix predictor restricted to them.
    """

    index: np.ndarray
    joint: np.ndarray
    predictors: tuple


@dataclass(frozen=True)
class ModelSpec:
    """Joint model over R responses sharing one observation index of length N.

    ``rho_fixed`` pins the between-response correlations at the given
    values; None means they are estimated.
    """

    responses: tuple
    rho_fixed: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "responses", tuple(self.responses))
        ns = {r.predictor.dim for r in self.responses}
        if len(ns) != 1:
            raise DomainError(f"responses disagree on N: {sorted(ns)}")
        if self.rho_fixed is not None:
            rf = np.asarray(self.rho_fixed, dtype=float)
            if rf.size != self.n_rho:
                raise DomainError(
                    f"rho_fixed has length {rf.size}, expected {self.n_rho}"
                )
            object.__setattr__(self, "rho_fixed", rf)

    @cached_property
    def R(self):
        return len(self.responses)

    @cached_property
    def N(self):
        return self.responses[0].predictor.dim

    @cached_property
    def K(self):
        return sum(r.k for r in self.responses)

    @cached_property
    def n_rho(self):
        return self.R * (self.R - 1) // 2

    @cached_property
    def rho_free(self):
        return self.rho_fixed is None and self.R > 1

    @cached_property
    def unit_groups(self):
        """Independent units grouped by size, found on first use and kept.

        The units partition the observations by the union nonzero pattern
        of every response's structure matrices (matpred.unit_partition),
        so C, C^{-1} and every dC_i are block diagonal over them. Each
        distinct component object is restricted once per unit size, and
        responses whose predictors hold the same components share one
        restricted predictor.
        """
        keys = [tuple(map(id, resp.predictor.components)) for resp in self.responses]
        comps = {id(z): z for resp in self.responses for z in resp.predictor.components}
        groups = []
        for index in unit_partition(list(comps.values())):
            blocks = {key: z.unit_blocks(index) for key, z in comps.items()}
            preds = {key: MatrixPredictor(tuple(blocks[i] for i in key)) for key in set(keys)}
            groups.append(UnitGroup(
                index=index,
                joint=np.concatenate([r * self.N + index for r in range(self.R)], axis=1),
                predictors=tuple(preds[key] for key in keys),
            ))
        return tuple(groups)

    @cached_property
    def layout(self):
        """theta's layout, built on first use and kept: one (role, r, d) per position.

        ``role`` is 'beta', 'rho', 'power' or 'tau'; ``r`` is the response,
        or for rho the index of its pair in rho_index_pairs(R); ``d`` is the
        local index (a beta's design column, a tau's component), else None.
        beta comes first, response by response, then lambda = (rho, p, tau)
        with only the free rho and powers.
        """
        resps = tuple(enumerate(self.responses))
        return tuple(
            [("beta", r, j) for r, resp in resps for j in range(resp.k)]
            + [("rho", i, None) for i in range(self.n_rho) if self.rho_free]
            + [("power", r, None) for r, resp in resps if resp.power_free]
            + [("tau", r, d) for r, resp in resps for d in range(resp.predictor.D_plus_1)]
        )

    @cached_property
    def identity_gradient(self):
        """The mean gradient when every link is the identity, else None; built once, read-only.

        It is the NR x K block design: X_r in response r's rows and beta
        columns, zero elsewhere.
        """
        if any(resp.link.kind != "identity" for resp in self.responses):
            return None
        N = self.N
        D = np.zeros((N * self.R, self.K))
        for r, (resp, b) in enumerate(zip(self.responses, self.beta_slices())):
            D[r * N : (r + 1) * N, b] = resp.design
        D.setflags(write=False)
        return D

    def beta_slices(self):
        owners = [r for _, r, _ in self.layout[: self.K]]
        return [slice(bisect_left(owners, r), bisect_right(owners, r)) for r in range(self.R)]

    def lambda_index_map(self):
        """Per lambda position: ('rho', i, None) | ('power', r, None) | ('tau', r, d)."""
        return self.layout[self.K :]

    @property
    def Q(self):
        return len(self.layout) - self.K

    @cached_property
    def _lambda_split(self):
        """(rho then p at their defaults, where lambda's free rho and p go, each tau's slice)."""
        rho = np.zeros(self.n_rho) if self.rho_fixed is None else self.rho_fixed
        head = np.concatenate([rho, [resp.power_value for resp in self.responses]])
        at = [r + self.n_rho * (kind == "power") for kind, r, _ in self.lambda_index_map()
              if kind != "tau"]
        sizes = [resp.predictor.D_plus_1 for resp in self.responses]
        stops = (len(at) + np.cumsum(sizes)).tolist()
        return head, np.array(at, dtype=int), [slice(b - d, b) for b, d in zip(stops, sizes)]

    def split_lambda(self, lam):
        """Unpack lambda into (rho, p per response, tau per response), by index arrays kept."""
        lam = np.asarray(lam, dtype=float)
        if lam.size != self.Q:
            raise DomainError(f"lambda has length {lam.size}, expected {self.Q}")
        head, at, taus = self._lambda_split
        head = head.copy()
        head[at] = lam[: at.size]
        return head[: self.n_rho], head[self.n_rho :], [lam[sl].copy() for sl in taus]

    def pack_lambda(self, rho, p, tau):
        """Inverse of split_lambda: the free entries of rho, p and tau in layout order.

        ``p`` holds one power per response (a fixed one is not read) and
        ``tau`` one block per response. A block whose length disagrees
        with the layout raises DomainError naming the block.
        """
        rho, p = np.atleast_1d(rho).astype(float), np.atleast_1d(p).astype(float)
        tau = [np.atleast_1d(t).astype(float) for t in tau]
        if self.rho_free and rho.size != self.n_rho:
            raise DomainError(f"rho has length {rho.size}, expected {self.n_rho}")
        if p.size != self.R:
            raise DomainError(f"p has length {p.size}, expected one per response ({self.R})")
        if len(tau) != self.R:
            raise DomainError(f"tau has {len(tau)} blocks, expected one per response ({self.R})")
        for t, resp in zip(tau, self.responses):
            if t.size != resp.predictor.D_plus_1:
                raise DomainError(
                    f"tau for {resp.name!r} has length {t.size}, "
                    f"expected {resp.predictor.D_plus_1}"
                )
        lam = np.empty(self.Q)
        for pos, (role, r, d) in enumerate(self.lambda_index_map()):
            lam[pos] = rho[r] if role == "rho" else p[r] if role == "power" else tau[r][d]
        return lam

    def parameter_names(self):
        names = [resp.name for resp in self.responses]
        pairs = rho_index_pairs(self.R)
        return [
            f"rho({names[pairs[r][0]]},{names[pairs[r][1]]})" if role == "rho"
            else f"{names[r]}:p" if role == "power"
            else f"{names[r]}:{role}{d}"
            for role, r, d in self.layout
        ]


@dataclass(frozen=True)
class ThetaPartition:
    """Full parameter vector theta = (beta, lambda)."""

    beta: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))

    @property
    def flat(self):
        return np.concatenate([self.beta, self.lam])

    def with_beta(self, beta):
        return ThetaPartition(beta, self.lam)

    def with_lambda(self, lam):
        return ThetaPartition(self.beta, lam)


def make_theta(model, beta, lam):
    return ThetaPartition(beta, lam)
