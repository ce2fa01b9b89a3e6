"""Poisson log-link GLM: design matrices, IRLS fitting, tests, predictions.

The response y_i is modeled as Poisson with mean lambda_i where
ln(lambda_i) = beta_0 + sum_j x_ij beta_j (+ one dummy per non-reference
level of each fixed-effect factor). Coefficients are maximum-likelihood
estimates obtained by iteratively reweighted least squares on the
canonical log link. Each step solves the weighted normal equations with
LAPACK ``posv`` (a Cholesky factorization) on the upper triangle, the
routine ``scipy.linalg.solve(assume_a="pos")`` reaches, and a 1 x 1
system by scipy's division rule, so the bits are those of that call.
Standard errors come from the inverse Fisher information at the optimum.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Mapping, Sequence

import numpy as np
from scipy import linalg, special

from .diagnostics import deviance
from .ingest import Dataset, STRING_COLUMNS

INTERCEPT = "intercept"

#: Wald-test star thresholds (two-sided p): *, **, ***.
STAR_THRESHOLDS = (0.05, 0.01, 0.001)

#: A design column whose residual after projection on the earlier columns
#: is at most this fraction of its norm counts as collinear.
COLLINEARITY_RTOL = 1e-8

#: Bytes of expanded candidate columns in one row block of the R factor
#: that ``build_design`` computes: about 1 MiB, so the memory a design's
#: expansion needs does not grow with its rows.
R_BLOCK_BYTES = 1 << 20

# Convergence controls of the IRLS loop in fit_poisson.
MAX_ITERATIONS = 100
DEVIANCE_RTOL = 1e-8
SCORE_ATOL = 1e-6
SEPARATION_THRESHOLD = 30.0
MAX_HALVINGS = 32


class DesignError(ValueError):
    """Raised when a design matrix cannot be built as requested."""


class SeparationError(RuntimeError):
    """Raised when the Poisson MLE lies at -inf on the log scale."""


class PredictionError(ValueError):
    """Raised when covariates passed to predict() are incomplete or unknown."""


@dataclass(frozen=True)
class ModelSpec:
    """Declarative regression specification.

    ``predictors`` are numeric columns entering linearly; every column in
    ``fixed_effects`` is dummy-coded with one indicator per non-reference
    level (reference = lexicographically first level).
    """

    response: str
    predictors: tuple[str, ...] = ()
    fixed_effects: tuple[str, ...] = ()
    include_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "predictors", tuple(self.predictors))
        object.__setattr__(self, "fixed_effects", tuple(self.fixed_effects))
        if self.response in self.predictors:
            raise ValueError(f"response {self.response!r} also appears as predictor")
        if len(set(self.predictors)) != len(self.predictors):
            raise ValueError("duplicate predictor names")
        if len(set(self.fixed_effects)) != len(self.fixed_effects):
            raise ValueError("duplicate fixed-effect names")


def dummy_name(factor: str, level: str) -> str:
    return f"{factor}[{level}]"


@dataclass
class DesignMatrix:
    """Numeric expansion of a ModelSpec over one dataset.

    Holds, privately, the candidate columns of its spec in compact form and
    their R factor, from which ``X`` is built the first time it is read
    (and kept, so a design read once holds its ``X`` until it is freed) and
    ``restrict`` gives the design of any narrower spec on the same rows. A
    copy made by ``dataclasses.replace`` has not read ``X``.
    """

    columns: list[str]
    y: np.ndarray
    spec: ModelSpec
    factor_levels: dict[str, list[str]]
    dropped: list[tuple[str, str]]
    excluded_rows: int
    row_index: np.ndarray
    _block: _Block = field(repr=False)

    @cached_property
    def X(self) -> np.ndarray:
        """The n x p design, C-ordered, one column per name in ``columns``."""
        return self._block.expand(self.columns)

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    def restrict(self, spec: ModelSpec) -> DesignMatrix:
        """The design of ``spec`` on this design's rows, without a new expansion.

        ``spec`` must have this design's response and a subset of its
        predictors and fixed effects; it may include the intercept even if
        this design does not. The columns, their order and the dropped
        ones are those ``build_design`` gives for ``spec`` on these rows;
        ``excluded_rows`` and ``row_index`` are this design's.
        """
        own = self.spec
        if (
            spec.response != own.response
            or not set(spec.predictors) <= set(own.predictors)
            or not set(spec.fixed_effects) <= set(own.fixed_effects)
        ):
            raise DesignError(f"{spec} is not a restriction of {own}")
        if spec == own:  # the same columns: a copy, which has not read X
            return replace(self)
        levels = {factor: self.factor_levels[factor] for factor in spec.fixed_effects}
        return self._block.select(spec, self.y, levels, self.excluded_rows, self.row_index)


class _Block:
    """Every candidate column of one spec on its rows, held compactly, and their R factor.

    The candidates are the columns of the C-ordered array ``dense``, then
    the dummies of each factor in ``factors``, a pair of an int code array
    and its number of levels: the dummy of level k, for k = 1 .. levels - 1,
    is ``code == k``. ``names`` names the candidates in that order, which is
    their order among R's columns. ``build_design`` puts the intercept in
    column 0 of ``dense``, whether the spec has one or not.

    R is computed over row blocks of the expanded candidates, each about
    ``R_BLOCK_BYTES``, so no more than one block of them is ever expanded.
    """

    def __init__(self, dense: np.ndarray, factors: Sequence[tuple[np.ndarray, int]],
                 names: list[str]):
        self.dense = dense
        self.codes = [code for code, _ in factors]
        self.position = {name: j for j, name in enumerate(names)}
        # per candidate: its factor (-1 for a column of dense) and its level or dense column
        self._factor = [-1] * dense.shape[1]
        self._index = list(range(dense.shape[1]))
        self._dense_order = self._index.copy()
        for f, (_, levels) in enumerate(factors):
            self._factor += [f] * (levels - 1)
            self._index += range(1, levels)
        self.R = self._r_factor()

    def _fill(self, out: np.ndarray, candidates: list[int], rows: slice) -> np.ndarray:
        """Write the candidates at ``candidates``, on ``rows``, into the columns of ``out``."""
        at = 0
        for f, group in groupby(candidates, self._factor.__getitem__):
            index = [self._index[j] for j in group]
            part = out[:, at : at + len(index)]
            if f < 0:  # all of dense, in order, is a view; any other choice a copy
                whole = index == self._dense_order
                part[...] = self.dense[rows] if whole else self.dense[rows, index]
            else:
                np.equal(self.codes[f][rows, None], index, out=part)
            at += len(index)
        return out

    def _r_factor(self) -> np.ndarray:
        """R of the QR factorization of every candidate, updated one row block at a time.

        The R of the rows so far and the next block stacked below it have
        the R of all those rows; LAPACK ``tpqrt`` factors that stack with
        the triangle's structure, so each block costs what its own QR would.
        """
        n, m = self.dense.shape[0], len(self._index)
        size = max(1, R_BLOCK_BYTES // (8 * m))
        R = np.zeros((m, m), order="F")
        buffer = np.empty((min(size, n), m), order="F")
        every = list(range(m))
        for start in range(0, n, size):
            rows = slice(start, min(start + size, n))
            part = self._fill(buffer[: rows.stop - start], every, rows)
            # reflectors applied 8 at a time: of 1 to 64, 4 to 8 were fastest with
            # OpenBLAS on 19,800 x 28 and 45,358 x 104 candidates, 32 up to 3x slower
            R, _, _, info = linalg.lapack.dtpqrt(
                0, min(m, 8), R, part, overwrite_a=1, overwrite_b=1
            )
            if info:
                raise ValueError(f"LAPACK tpqrt rejected argument {-info}")
        return R

    def expand(self, names: list[str]) -> np.ndarray:
        """The named candidates on every row, as one C-ordered n x p array.

        Names that are the columns of ``dense``, in order, give ``dense``
        itself, which no one writes to.
        """
        candidates = [self.position[name] for name in names]
        if candidates == self._dense_order:
            return self.dense
        X = np.empty((self.dense.shape[0], len(names)))
        return self._fill(X, candidates, slice(None))

    def select(self, spec, y, factor_levels, excluded_rows, row_index) -> DesignMatrix:
        """Rank-filter the candidates of ``spec`` and name the kept columns."""
        candidate = [INTERCEPT] if spec.include_intercept else []
        candidate += spec.predictors
        for factor in spec.fixed_effects:
            candidate += [dummy_name(factor, level) for level in factor_levels[factor][1:]]
        if not candidate:
            raise DesignError("empty design: no intercept and no predictors")

        # Greedy rank filter in column order: a column numerically inside the
        # span of the columns kept before it is dropped, so earlier spec terms
        # always win over later ones. It runs on R's columns: the candidates
        # are QR with orthonormal Q, so every residual of a candidate after
        # projection on others has the norm of the same residual among R's
        # columns, which are m-long instead of n-long. The kept directions
        # fill the leading columns of Qk; each candidate is projected off them
        # by classical Gram-Schmidt applied twice ("twice is enough", Giraud,
        # Langou and Rozloznik 2005), two matrix-vector products per pass.
        kept: list[str] = []
        dropped: list[tuple[str, str]] = []
        Qk = np.empty((self.R.shape[0], len(candidate)), order="F")
        for name in candidate:
            v = self.R[:, self.position[name]].copy()
            norm = np.linalg.norm(v)
            if norm == 0.0:
                dropped.append((name, "all-zero column"))
                continue
            basis = Qk[:, : len(kept)]
            for _ in range(2):
                v -= basis @ (basis.T @ v)
            resid = np.linalg.norm(v)
            if resid <= COLLINEARITY_RTOL * norm:
                dropped.append((name, "collinear with earlier columns"))
                continue
            Qk[:, len(kept)] = v / resid
            kept.append(name)

        if not kept:
            raise DesignError("empty design: all columns dropped")
        return DesignMatrix(
            columns=kept,
            y=y,
            spec=spec,
            factor_levels=factor_levels,
            dropped=dropped,
            excluded_rows=excluded_rows,
            row_index=row_index,
            _block=self,
        )


def build_design(d: Dataset, spec: ModelSpec) -> DesignMatrix:
    """Expand a model spec into a full-column-rank design matrix.

    Rows with a missing value in any used column are excluded (the count
    is recorded). Factor levels are dummy-coded with the reference level
    dropped; columns that are all zero after exclusion, or numerically in
    the span of earlier columns, are dropped and logged. Column order is
    intercept, predictors in spec order, then each factor's non-reference
    levels in lexicographic order.

    The candidate columns, with the intercept always among them, are held
    as one dense array of the intercept and predictors plus one code array
    per factor, and factored by a QR computed over row blocks; the rank
    filter runs on the columns of its R factor, ``X`` is built from the
    kept columns when it is first read, and ``DesignMatrix.restrict``
    reuses the candidates and R for narrower specs.
    """
    if not len(d):
        raise DesignError("empty design: the table has no rows")
    used = (spec.response,) + spec.predictors + spec.fixed_effects
    missing = np.zeros(len(d), dtype=bool)
    for name in used:
        missing |= d.missing(name)
    for name in (spec.response,) + spec.predictors:
        if name in STRING_COLUMNS:
            raise DesignError(f"column {name!r} is not numeric")

    keep = np.flatnonzero(~missing)
    excluded = len(d) - keep.size
    if not keep.size:
        raise DesignError("empty design: every row has a missing value in a used column")

    y = d.numeric(spec.response)[keep]
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise DesignError(f"response {spec.response!r} must hold non-negative integers")

    factor_levels: dict[str, list[str]] = {}
    factors: list[tuple[np.ndarray, int]] = []
    names = [INTERCEPT, *spec.predictors]
    for factor in spec.fixed_effects:
        # levels are str() of the Python values, sorted by code point
        labels = [str(v) for v in d.column(factor)[keep].tolist()]
        levels = sorted(set(labels))
        if len(levels) < 2:
            raise DesignError(
                f"fixed effect {factor!r} has a single level after exclusions"
            )
        code_of = {level: code for code, level in enumerate(levels)}
        code = np.fromiter(map(code_of.__getitem__, labels), np.int64, len(labels))
        factors.append((code, len(levels)))
        factor_levels[factor] = levels
        names += [dummy_name(factor, level) for level in levels[1:]]

    dense = np.empty((keep.size, 1 + len(spec.predictors)))
    dense[:, 0] = 1.0
    for j, name in enumerate(spec.predictors, 1):
        dense[:, j] = d.numeric(name)[keep]

    # every fit and restriction of this design shares y, keep and dense, so none may change
    y.flags.writeable = keep.flags.writeable = dense.flags.writeable = False
    return _Block(dense, factors, names).select(spec, y, factor_levels, excluded, keep)


def log_likelihood(y, lam) -> float:
    """Poisson log-likelihood sum(-lambda_i + y_i ln lambda_i - ln y_i!).

    ``ln y!`` is evaluated through the log-gamma function; the
    ``y_i ln lambda_i`` term uses the xlogy convention so a zero count
    contributes exactly ``-lambda_i``.
    """
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if y.shape != lam.shape:
        raise ValueError("y and lambda must have equal length")
    if np.any(lam <= 0):
        raise ValueError("lambda must be strictly positive")
    return float(np.sum(-lam + special.xlogy(y, lam) - special.gammaln(y + 1.0)))


def aic(log_likelihood: float, n_parameters: int) -> float:
    """Akaike information criterion: 2 * #estimated coefficients - 2 * LL."""
    return 2.0 * n_parameters - 2.0 * log_likelihood


@dataclass
class FitResult:
    """Fitted Poisson GLM: estimates, uncertainty and convergence record.

    ``row_index`` holds positions in the table given to ``build_design``.
    ``deviance`` is ``diagnostics.deviance(y, fitted)``, as the last IRLS
    step computed it.
    """

    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    fitted: np.ndarray
    y: np.ndarray
    log_likelihood: float
    deviance: float
    aic: float
    n: int
    k: int
    converged: bool
    iterations: int
    spec: ModelSpec
    factor_levels: dict[str, list[str]] = field(default_factory=dict)
    dropped: list[tuple[str, str]] = field(default_factory=list)
    excluded_rows: int = 0
    row_index: np.ndarray | None = None
    separated: bool = False
    messages: list[str] = field(default_factory=list)

    @property
    def n_parameters(self) -> int:
        return len(self.coefficients)

    @property
    def has_intercept(self) -> bool:
        return INTERCEPT in self.coefficients

    @property
    def kept_predictors(self) -> tuple[str, ...]:
        """The spec's predictors that have a coefficient (the design kept), in spec order."""
        return tuple(p for p in self.spec.predictors if p in self.coefficients)


def _solve_normal_equations(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The IRLS target: ``linalg.solve(H, g, assume_a="pos")``, bit for bit.

    LAPACK ``posv``, the Cholesky driver that scipy's solve reaches, runs
    on the upper triangle of ``H`` as it is: ``X'WX`` is not bitwise
    symmetric, so its lower triangle or ``H.T`` would move the last bits.
    A 1 x 1 system is ``g / H[0, 0]``, as scipy computes it. Where scipy
    raises ``LinAlgError`` (``posv`` reports a failed factorization, or
    ``H[0, 0]`` is 0) the least-squares solution is returned instead, and
    a non-finite ``H`` or ``g`` raises ``ValueError`` as scipy's
    ``check_finite`` does.
    """
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise ValueError("array must not contain infs or NaNs")
    if H.shape == (1, 1):
        if H[0, 0] != 0:
            return g / H[0, 0]
    else:
        _, x, info = linalg.lapack.dposv(H, g)
        if info == 0:
            return x
    return np.linalg.lstsq(H, g, rcond=None)[0]


def fit_poisson(dm: DesignMatrix) -> FitResult:
    """Maximize the Poisson log-likelihood by IRLS on the canonical link.

    Starts from beta = 0 with the intercept at ln(mean(y) + 0.1), solves
    the weighted normal equations each step (LAPACK ``posv`` on the upper
    triangle, ``g / H[0, 0]`` when p = 1, least squares where either
    fails; see ``_solve_normal_equations``), and halves the step while the
    deviance increases. Converged means the relative deviance change fell
    below ``DEVIANCE_RTOL`` and every score component |X_c'(y - lambda)|
    below ``SCORE_ATOL``; the score is computed only once the deviance
    change is below ``DEVIANCE_RTOL``. Any coefficient beyond
    ``SEPARATION_THRESHOLD`` in magnitude marks the fit as separated (a
    log-mean below -30 is numerically zero).

    A step whose normal equations are not finite, as with a design that
    holds an ``inf`` cell, raises ``ValueError``.

    The weighted copies of X that every iteration and the Fisher
    information need are written into one n x p work buffer, allocated once
    per fit, so a fit holds at most one such copy besides X itself.

    Raises
    ------
    SeparationError
        If the response is identically zero with an intercept present
        (the MLE lies at -inf; nothing is estimable).
    """
    X = np.asarray(dm.X, dtype=float)
    y = np.asarray(dm.y, dtype=float)
    n, p = X.shape
    has_intercept = bool(dm.columns) and dm.columns[0] == INTERCEPT

    if has_intercept and y.sum() == 0:
        raise SeparationError("all responses are zero: intercept MLE at -inf")

    beta = np.zeros(p)
    if has_intercept:
        beta[0] = np.log(y.mean() + 0.1)
    eta = X @ beta
    lam = np.exp(eta)
    dev = deviance(y, lam)

    converged = False
    messages: list[str] = []
    iterations = 0
    Xw = np.empty_like(X)
    for iterations in range(1, MAX_ITERATIONS + 1):
        w = np.clip(lam, 1e-10, None)
        z = eta + (y - lam) / w
        np.multiply(X, w[:, None], out=Xw)
        H = X.T @ Xw
        g = Xw.T @ z
        del w, z  # two n-vectors the step-halving does not need
        step = _solve_normal_equations(H, g) - beta

        # Step-halving: shrink toward the current iterate until the
        # deviance stops increasing.
        alpha = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = beta + alpha * step
            with np.errstate(over="ignore"):
                eta_c = X @ cand
                lam_c = np.exp(eta_c)
            if np.all(np.isfinite(lam_c)) and np.all(lam_c > 0):
                dev_c = deviance(y, lam_c)
                if dev_c <= dev + 1e-12 * (1.0 + abs(dev)):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            messages.append("step-halving failed to reduce the deviance")
            break

        rel_change = abs(dev - dev_c) / (0.1 + abs(dev_c))
        beta, eta, lam, dev = cand, eta_c, lam_c, dev_c
        if rel_change < DEVIANCE_RTOL and np.max(np.abs(X.T @ (y - lam))) < SCORE_ATOL:
            converged = True
            break

    if not converged and not messages:
        messages.append(f"no convergence within {MAX_ITERATIONS} iterations")

    separated = bool(np.any(np.abs(beta) > SEPARATION_THRESHOLD))
    if separated:
        worst = dm.columns[int(np.argmax(np.abs(beta)))]
        messages.append(
            f"separation suspected: |coefficient| > {SEPARATION_THRESHOLD:g} "
            f"for {worst!r}"
        )
    # Exact check: a non-negative column whose active rows carry zero counts
    # has score -sum(c*lambda) < 0 everywhere, so its MLE sits at -inf no
    # matter where the iteration stopped. With y >= 0, a non-negative column
    # has c'y == 0 exactly when every product c_i*y_i is 0, in any summation
    # order, so only the columns where one product X'y is 0 need the test.
    Xty = X.T @ y
    for j in np.flatnonzero(Xty == 0).tolist():
        col, name = X[:, j], dm.columns[j]
        if name != INTERCEPT and np.all(col >= 0) and col.max() > 0:
            separated = True
            messages.append(f"separation: column {name!r} only active where y = 0")

    # Standard errors from the inverse Fisher information at the optimum.
    H = X.T @ np.multiply(X, lam[:, None], out=Xw)
    try:
        cov = linalg.inv(H)
    except linalg.LinAlgError:
        cov = linalg.pinv(H)
        messages.append("Fisher information singular: pseudo-inverse standard errors")
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    ll = log_likelihood(y, lam)
    k = p - (1 if has_intercept else 0)
    return FitResult(
        coefficients=dict(zip(dm.columns, beta.tolist())),
        standard_errors=dict(zip(dm.columns, se.tolist())),
        fitted=lam,
        y=dm.y,
        log_likelihood=ll,
        deviance=dev,
        aic=aic(ll, p),
        n=n,
        k=k,
        converged=converged,
        iterations=iterations,
        spec=dm.spec,
        factor_levels=dict(dm.factor_levels),
        dropped=list(dm.dropped),
        excluded_rows=dm.excluded_rows,
        row_index=dm.row_index,
        separated=separated,
        messages=messages,
    )


def score_vector(dm: DesignMatrix, fit: FitResult) -> np.ndarray:
    """Score X'(y - lambda_hat); near zero componentwise at the optimum."""
    return dm.X.T @ (dm.y - fit.fitted)


def predict(fit: FitResult, x: Mapping[str, object]) -> float:
    """Expected count exp(linear predictor) at the named covariate values.

    ``x`` supplies a numeric value per surviving predictor and a level per
    fixed-effect factor. Levels resolve to their dummy columns; a level
    whose dummy was dropped (or the reference level) contributes zero.
    """
    coefs = fit.coefficients
    lp = coefs.get(INTERCEPT, 0.0)
    for name in fit.kept_predictors:  # a dropped predictor contributes nothing
        if name not in x:
            raise PredictionError(f"missing covariate {name!r}")
        lp += coefs[name] * float(x[name])  # type: ignore[arg-type]
    for factor in fit.spec.fixed_effects:
        if factor not in x:
            raise PredictionError(f"missing level for fixed effect {factor!r}")
        level = str(x[factor])
        levels = fit.factor_levels.get(factor, [])
        if level not in levels:
            raise PredictionError(f"unknown level {level!r} for fixed effect {factor!r}")
        lp += coefs.get(dummy_name(factor, level), 0.0)
    return float(np.exp(lp))


@dataclass(frozen=True)
class WaldTest:
    """Wald z-test of one coefficient against zero."""

    term: str
    estimate: float
    se: float
    z: float | None
    p: float | None
    stars: str
    available: bool = True


def star_label(p: float) -> str:
    """Significance stars: * p<0.05, ** p<0.01, *** p<0.001."""
    if p < STAR_THRESHOLDS[2]:
        return "***"
    if p < STAR_THRESHOLDS[1]:
        return "**"
    if p < STAR_THRESHOLDS[0]:
        return "*"
    return ""


def wald_tests(fit: FitResult) -> list[WaldTest]:
    """Per-coefficient z-statistics and two-sided normal p-values.

    A coefficient with a zero or non-finite standard error is reported
    with the test marked unavailable instead of failing the whole table.
    """
    out = []
    for name, estimate in fit.coefficients.items():
        se = fit.standard_errors[name]
        if not np.isfinite(se) or se <= 0:
            out.append(WaldTest(name, estimate, se, None, None, "", available=False))
            continue
        z = estimate / se
        p = float(2.0 * special.ndtr(-abs(z)))
        out.append(WaldTest(name, estimate, se, float(z), p, star_label(p)))
    return out
