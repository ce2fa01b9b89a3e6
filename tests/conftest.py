import numpy as np
import pytest

from abusekit.ingest import COLUMNS, Dataset

#: One PASS/FAIL line per acceptance criterion, echoed in the run summary.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


#: Neutral structural values of every generated row unless overridden.
ROW_DEFAULTS = dict(
    assigned_ips_log10=0.0,
    hosting_ips_log10=0.0,
    hosted_domains_log10=0.0,
    pct_shared=0.0,
    abuse_count=0,
)


def make_dataset(rows, source_label=""):
    """Build a Dataset from dicts of per-row overrides (or ints = counts).

    Row ``i`` is provider ``p{i:04d}`` with the ``ROW_DEFAULTS`` values
    unless overridden; any other column a row does not set is missing.
    """
    rows = [{"abuse_count": row} if isinstance(row, int) else row for row in rows]
    columns = {"provider_id": [row.get("provider_id", f"p{i:04d}") for i, row in enumerate(rows)]}
    for name in set(ROW_DEFAULTS).union(*rows) - {"provider_id"}:
        default = ROW_DEFAULTS.get(name)
        columns[name] = [row.get(name, default) for row in rows]
    return Dataset(columns, source_label=source_label)


def same_table(a, b):
    """Whether two datasets hold the same values in every column.

    NaN, the missing marker of float columns, equals NaN here.
    """
    return all(
        np.array_equal(a.column(c), b.column(c), equal_nan=a.column(c).dtype.kind == "f")
        for c in COLUMNS
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


OVERPARAM_FIELDS = (
    "assigned_ips_log10",
    "hosting_ips_log10",
    "hosted_domains_log10",
    "price_per_year",
    "popularity_index",
    "time_in_business",
    "ict_dev_index",
)


def overparameterized_noise_dataset(seed=30, n=40, n_outliers=12):
    """Pure-noise covariates against a heavy-tailed response.

    Junk predictors cannot systematically beat the k*phi penalty (reduction
    and penalty both scale with k*phi, so the sign is data-dependent); this
    pinned instance yields a clearly negative pseudo-R2 (~ -0.22).
    """
    r = np.random.default_rng(seed)
    y = r.poisson(3.0, size=n)
    pos = r.choice(n, n_outliers, replace=False)
    y[pos] = r.integers(20_000, 60_000, size=n_outliers)
    junk = r.normal(size=(n, len(OVERPARAM_FIELDS)))
    rows = [
        {
            "abuse_count": int(y[i]),
            **{f: float(junk[i, j]) for j, f in enumerate(OVERPARAM_FIELDS)},
        }
        for i in range(n)
    ]
    return make_dataset(rows)
