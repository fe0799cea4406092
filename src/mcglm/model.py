"""Model specification and the theta = (beta, lambda) parameter layout."""

from dataclasses import dataclass, replace
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

    @property
    def R(self):
        return len(self.responses)

    @property
    def N(self):
        return self.responses[0].predictor.dim

    @property
    def K(self):
        return sum(r.k for r in self.responses)

    @property
    def n_rho(self):
        return self.R * (self.R - 1) // 2

    @property
    def rho_free(self):
        return self.rho_fixed is None and self.R > 1

    @cached_property
    def unit_groups(self):
        """Independent units grouped by size, found on first use and kept.

        The units partition the observations by the union nonzero pattern
        of every response's structure matrices (matpred.unit_partition),
        so C, C^{-1} and every dC_i are block diagonal over them.
        """
        comps = [z for resp in self.responses for z in resp.predictor.components]
        return tuple(
            UnitGroup(
                index=index,
                joint=np.concatenate([r * self.N + index for r in range(self.R)], axis=1),
                predictors=tuple(resp.predictor.unit_blocks(index) for resp in self.responses),
            )
            for index in unit_partition(comps)
        )

    def beta_slices(self):
        out, pos = [], 0
        for r in self.responses:
            out.append(slice(pos, pos + r.k))
            pos += r.k
        return out

    def lambda_index_map(self):
        """Per lambda position: ('rho', i, None) | ('power', r, None) | ('tau', r, d)."""
        entries = []
        if self.rho_free:
            for i in range(self.n_rho):
                entries.append(("rho", i, None))
        for r, resp in enumerate(self.responses):
            if resp.power_free:
                entries.append(("power", r, None))
        for r, resp in enumerate(self.responses):
            for d in range(resp.predictor.D_plus_1):
                entries.append(("tau", r, d))
        return entries

    @property
    def Q(self):
        return len(self.lambda_index_map())

    def split_lambda(self, lam):
        """Unpack lambda into (rho, p per response, tau per response)."""
        lam = np.asarray(lam, dtype=float)
        if lam.size != self.Q:
            raise DomainError(f"lambda has length {lam.size}, expected {self.Q}")
        pos = 0
        if self.rho_free:
            rho = lam[: self.n_rho].copy()
            pos = self.n_rho
        elif self.rho_fixed is not None:
            rho = self.rho_fixed.copy()
        else:
            rho = np.zeros(self.n_rho)
        p = np.empty(self.R)
        for r, resp in enumerate(self.responses):
            if resp.power_free:
                p[r] = lam[pos]
                pos += 1
            else:
                p[r] = resp.power_value
        tau = []
        for resp in self.responses:
            d1 = resp.predictor.D_plus_1
            tau.append(lam[pos : pos + d1].copy())
            pos += d1
        return rho, p, tau

    def pack_lambda(self, rho, p, tau):
        """Inverse of split_lambda (free entries only)."""
        parts = []
        if self.rho_free:
            parts.append(np.asarray(rho, dtype=float))
        for r, resp in enumerate(self.responses):
            if resp.power_free:
                parts.append(np.atleast_1d(float(np.asarray(p)[r])))
        for t in tau:
            parts.append(np.asarray(t, dtype=float))
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def parameter_names(self):
        names = []
        for resp in self.responses:
            for j in range(resp.k):
                names.append(f"{resp.name}:beta{j}")
        pairs = rho_index_pairs(self.R)
        for role, r, d in self.lambda_index_map():
            if role == "rho":
                a, b = pairs[r]
                names.append(f"rho({self.responses[a].name},{self.responses[b].name})")
            elif role == "power":
                names.append(f"{self.responses[r].name}:p")
            else:
                names.append(f"{self.responses[r].name}:tau{d}")
        return names


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
        return replace(self, beta=np.asarray(beta, dtype=float))

    def with_lambda(self, lam):
        return replace(self, lam=np.asarray(lam, dtype=float))


def make_theta(model, beta, lam):
    return ThetaPartition(beta, lam)


def complete_case_mask(arrays):
    """True where every given 1-d array is finite (complete-case rule)."""
    mask = None
    for a in arrays:
        ok = np.isfinite(np.asarray(a, dtype=float))
        mask = ok if mask is None else (mask & ok)
    return mask
