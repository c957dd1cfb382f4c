"""Paired statistics: t-tests, step-down multiple-comparison correction,
Pearson correlation, and the speaking-mode comparison report."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError, UsageError

# ---------------------------------------------------------------------------
# Special functions

_BETACF_MAX_ITER = 400
_BETACF_EPS = 1e-14
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        # the even then the odd half-step; the odd one's delta tests convergence
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise NumericalError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise UsageError("betainc requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Two-tailed p-value of Student's t: I_{df/(df+t^2)}(df/2, 1/2)."""
    if not math.isfinite(t):
        raise UsageError(f"t statistic must be finite, got {t}")
    if df < 1:
        raise UsageError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return min(1.0, max(0.0, betainc(df / 2.0, 0.5, x)))


# ---------------------------------------------------------------------------
# Tests and correlations


@dataclass
class PairedSeries:
    """Two matched measurement series keyed by utterance or speaker ids."""

    keys: list[str]
    values_a: np.ndarray
    values_b: np.ndarray

    def __post_init__(self) -> None:
        self.values_a = np.asarray(self.values_a, dtype=np.float64)
        self.values_b = np.asarray(self.values_b, dtype=np.float64)
        if len(self.keys) != len(set(self.keys)):
            raise DataError("paired series keys must be unique")
        if not (len(self.keys) == self.values_a.size == self.values_b.size):
            raise DataError("paired series lengths differ")
        if self.values_a.size < 2:
            raise DataError("paired series needs at least 2 pairs")
        finite = np.isfinite(self.values_a) & np.isfinite(self.values_b)
        if not finite.all():
            raise DataError(f"paired series key {self.keys[int(finite.argmin())]!r} "
                            "has a NaN or inf value")


@dataclass
class TestResult:
    t: float
    df: int
    p: float


def _mean_std(values: np.ndarray, keys: list[str], what: str) -> tuple[float, float, int]:
    """Mean and sample standard deviation (0 for one value) of ``values``
    as ``(mean, std, e)``: the moments are ``mean * 2**e`` and ``std * 2**e``.

    The values are scaled by the power of two that puts their largest
    magnitude in [0.5, 1). That is exact, and the scaled moments neither
    underflow nor overflow, so their ratio is scale-free. DataError, naming
    the key of the largest magnitude, when a moment overflows float64.
    """
    e = math.frexp(float(np.abs(values).max()))[1]  # 0 for an infinite value
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(values, -e)
        mean = float(scaled.mean())
        std = float(scaled.std(ddof=1)) if values.size > 1 else 0.0
        unscaled = np.ldexp([mean, std], e)
    if not np.isfinite(unscaled).all():
        key = keys[int(np.abs(values).argmax())]
        raise DataError(f"{what} overflow float64 in their moments; "
                        f"the largest is at key {key!r}")
    return mean, std, e


def paired_ttest(series: PairedSeries) -> TestResult:
    """Two-tailed paired t-test on values_a - values_b.

    Zero-variance differences: all-zero -> t=0, p=1; nonzero mean ->
    t=+-inf, p=0.
    """
    with np.errstate(over="ignore"):  # an infinite difference is reported below
        d = series.values_a - series.values_b
    # t is scale-free, so the scaled moments give it
    mean_d, sd, _ = _mean_std(d, series.keys, "paired differences")
    n = d.size
    if sd == 0.0:
        if mean_d == 0.0:
            return TestResult(t=0.0, df=n - 1, p=1.0)
        return TestResult(t=math.copysign(math.inf, mean_d), df=n - 1, p=0.0)
    t = mean_d / (sd / math.sqrt(n))
    return TestResult(t=t, df=n - 1, p=student_t_sf(t, n - 1))


def holm_bonferroni(p_values: list[float], alpha: float) -> list[bool]:
    """Step-down correction: reject the k-th smallest p while
    p_(k) <= alpha / (m - k + 1); stop at the first failure. Returns the
    rejection decision of each p-value, in input order."""
    if not p_values:
        raise UsageError("holm_bonferroni needs at least one p-value")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")
    if any(not 0.0 <= p <= 1.0 for p in p_values):
        raise UsageError("p-values must lie in [0, 1]")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    reject = [False] * m
    for k, i in enumerate(order):
        if p_values[i] <= alpha / (m - k):
            reject[i] = True
        else:
            break
    return reject


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise DataError("pearson_r needs two equal-length series of >= 2 values")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("pearson_r input contains NaN or inf")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise NumericalError("pearson_r undefined for a constant series")
    r = float(dx @ dy) / (sx * sy)
    return min(1.0, max(-1.0, r))


def syllable_rate(syllable_count: int, duration_s: float) -> float:
    """Syllables per second for one utterance."""
    if not 0.0 < duration_s < math.inf:
        raise DataError(f"duration must be positive and finite, got {duration_s}")
    if syllable_count < 1:
        raise DataError(f"syllable count must be >= 1, got {syllable_count}")
    return syllable_count / duration_s


# ---------------------------------------------------------------------------
# Mode comparison report

_ALPHA = 0.05  # family-wise error rate of each metric's mode-pair tests

#: metric name -> mode -> key -> value. Keys pair observations across modes:
#: utterance pairing keys at the utterance level, speaker ids at the speaker
#: level.
MetricTable = dict[str, dict[str, dict[str, float]]]


@dataclass
class SummaryRow:
    metric: str
    level: str  # "utterance" | "speaker"
    mode: str
    n: int
    mean: float
    std: float


@dataclass
class TestRow:
    metric: str
    level: str
    mode_a: str
    mode_b: str
    n: int
    t: float
    df: int
    p: float
    reject: bool  # Holm-corrected decision at level _ALPHA


@dataclass
class DifferenceTable:
    """Per-speaker modal-minus-silent differences with pairwise structure."""

    speakers: list[str]
    columns: dict[str, np.ndarray]
    correlations: dict[tuple[str, str], float] = field(default_factory=dict)


@dataclass
class ModeReport:
    summaries: list[SummaryRow]
    tests: list[TestRow]
    differences: DifferenceTable | None
    excluded_keys: list[str]


def _paired_values(per_mode: dict[str, dict[str, float]],
                   mode_a: str, mode_b: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    keys = sorted(set(per_mode[mode_a]) & set(per_mode[mode_b]))
    a = np.array([per_mode[mode_a][k] for k in keys])
    b = np.array([per_mode[mode_b][k] for k in keys])
    return keys, a, b


def build_mode_report(utterance_metrics: MetricTable,
                      speaker_metrics: MetricTable) -> ModeReport:
    """Assemble per-mode summaries, pairwise paired t-tests Holm-corrected
    at level ``_ALPHA``, and the per-speaker modal-minus-silent difference
    table.

    Each metric's mode pairs form one Holm family. Observations present in
    only one mode of a pair are excluded (reported in ``excluded_keys``).
    A NaN or inf value raises DataError before anything is computed, and
    values or paired differences whose moments overflow float64 raise it
    when they are reached.
    """
    for metrics in (utterance_metrics, speaker_metrics):
        for metric, per_mode in metrics.items():
            for mode, values in per_mode.items():
                for key, value in values.items():
                    if not math.isfinite(value):
                        raise DataError(f"metric {metric!r}, mode {mode!r}, key {key!r}: "
                                        f"value {value} is not finite")
    summaries: list[SummaryRow] = []
    tests: list[TestRow] = []
    excluded: set[str] = set()

    for level, metrics in (("utterance", utterance_metrics),
                           ("speaker", speaker_metrics)):
        for metric, per_mode in metrics.items():
            modes = sorted(per_mode)
            for mode in modes:
                vals = np.array(list(per_mode[mode].values()), dtype=np.float64)
                if vals.size == 0:
                    continue
                mean, std, e = _mean_std(vals, list(per_mode[mode]),
                                         f"metric {metric!r}, mode {mode!r}: values")
                summaries.append(SummaryRow(metric, level, mode, vals.size,
                                            math.ldexp(mean, e), math.ldexp(std, e)))
            family: list[TestRow] = []
            for i, mode_a in enumerate(modes):
                for mode_b in modes[i + 1:]:
                    keys, a, b = _paired_values(per_mode, mode_a, mode_b)
                    excluded.update((set(per_mode[mode_a]) | set(per_mode[mode_b]))
                                    - set(keys))
                    if len(keys) < 2:
                        continue
                    try:
                        res = paired_ttest(PairedSeries(keys, a, b))
                    except DataError as exc:
                        raise DataError(f"metric {metric!r}, mode {mode_a!r} against "
                                        f"mode {mode_b!r}: {exc}") from exc
                    family.append(TestRow(metric, level, mode_a, mode_b,
                                          len(keys), res.t, res.df, res.p,
                                          reject=False))
            if family:
                reject = holm_bonferroni([row.p for row in family], _ALPHA)
                for row, rej in zip(family, reject):
                    row.reject = rej
                tests.extend(family)

    differences = _difference_table(speaker_metrics)
    return ModeReport(summaries=summaries, tests=tests,
                      differences=differences, excluded_keys=sorted(excluded))


def _difference_table(speaker_metrics: MetricTable) -> DifferenceTable | None:
    mode_a, mode_b = "modal", "silent"
    columns: dict[str, dict[str, float]] = {}
    for metric, per_mode in speaker_metrics.items():
        if mode_a not in per_mode or mode_b not in per_mode:
            continue
        keys, a, b = _paired_values(per_mode, mode_a, mode_b)
        if keys:
            columns[metric] = dict(zip(keys, a - b))
    if not columns:
        return None
    shared = sorted(set.intersection(*[set(c) for c in columns.values()]))
    if len(shared) < 2:
        return None
    table = DifferenceTable(
        speakers=shared,
        columns={m: np.array([c[k] for k in shared]) for m, c in columns.items()},
    )
    names = sorted(table.columns)
    for i, ma in enumerate(names):
        for mb in names[i + 1:]:
            x, y = table.columns[ma], table.columns[mb]
            try:
                table.correlations[(ma, mb)] = pearson_r(x, y)
            except NumericalError:
                continue
    return table


# ---------------------------------------------------------------------------
# CSV serialization


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def write_report_csv(report: ModeReport, outdir: str | Path) -> list[Path]:
    """Write summary.csv, tests.csv, and differences.csv under ``outdir``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    diffs = report.differences
    cols = [] if diffs is None else sorted(diffs.columns)
    speakers = [] if diffs is None else diffs.speakers
    return [
        _write_csv(outdir / "summary.csv", ["metric", "level", "mode", "n", "mean", "std"],
                   ([r.metric, r.level, r.mode, r.n, _fmt(r.mean), _fmt(r.std)]
                    for r in report.summaries)),
        _write_csv(outdir / "tests.csv", ["metric", "level", "mode_a", "mode_b", "n",
                                          "t", "df", "p", "reject_holm"],
                   ([r.metric, r.level, r.mode_a, r.mode_b, r.n, _fmt(r.t), r.df,
                     _fmt(r.p), int(r.reject)] for r in report.tests)),
        _write_csv(outdir / "differences.csv", ["speaker"] + [f"d_{c}" for c in cols],
                   ([spk] + [_fmt(diffs.columns[c][i]) for c in cols]
                    for i, spk in enumerate(speakers))),
    ]
