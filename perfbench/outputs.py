"""Output check for one figure job's CSV.

Structure: the exact header, the row keys the figure and SNR grid imply, in
order, a trials column no larger than the job's trial count, and finite
values wherever the row has trials.

Values: each row mean must lie within a statistical band around the
reference recorded at commit bb57de3 (reference.json). The reference
holds, per row key, the mean and the standard deviation of that row's mean
over many independent jobs of the benchmark's size. A row passes when its
mean is within Z_JOB of those deviations, scaled to the row's trial count,
and a run's pooled mean per row passes within Z_POOLED of the deviation of
a mean over all trials it pooled. A changed seed scheme redraws the trials
from the same distribution and stays inside the band; a wrong formula, a
lost factor or a biased estimator moves the pooled mean by many
deviations.

The optimizer's split factor is exempt from the band: it is a ratio whose
job mean is heavy-tailed (its deviation is 77% of its mean at 0 dB), so a
band wide enough for its tail would check nothing.

A fixed panel (the division workload's) pools too few trials for the band
to catch a wrong row: a fig7 trial's rates spread by up to 60% of their
mean, so the band of 8 trials is wider than the mean itself. The reference
therefore also holds the panel's own pooled means, and while the panel's
channel draws match the recorded fingerprint, every pooled row must lie
within PANEL_RTOL of them. That catches a row that is off by a third or
more, and tolerates floating-point reordering: the iterative alignment
amplifies rounding, and running the panel with multi-threaded BLAS moved
its rows by up to 4.2%. A declared change of the seed scheme redraws the
channels, so the fingerprint no longer matches; the panel is then held to
the band alone until the panel reference is recorded again.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HEADER = "sweep,scheme,metric,mean,stderr,trials"
Z_JOB = 6.0
Z_POOLED = 6.0
BAND_EXEMPT = {"alg1_split_factor"}
PANEL_RTOL = 0.15
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def expected_keys(figure, snr_grid):
    """Row keys (sweep, scheme, metric), in file order."""
    keys = []
    for snr in snr_grid:
        sweep = str(float(snr))
        if figure == "fig10":
            keys += [(sweep, "iassr", "sum_capacity"), (sweep, "equal_power", "sum_capacity"),
                     (sweep, "iassr", "alg1_split_factor")]
        elif figure == "fig11":
            keys += [(sweep, "iassr", "mse_center"), (sweep, "iassr", "mse_edge")]
        elif figure == "fig7":
            keys += [(sweep, f"iassr_{crit}", f"{met}_sum")
                     for crit in ("dof", "capacity") for met in ("rate", "effective_rate")]
        else:
            raise ValueError(f"no output check for {figure}")
    return keys


def key_text(key):
    return ",".join(key)


def load_reference(path=REFERENCE_PATH):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class CheckError(ValueError):
    """The CSV breaks the output contract; the message says where."""


def parse(data: bytes, figure, snr_grid, trials):
    """Rows of (key, mean, trials) after the structural checks."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise CheckError("file does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0] != HEADER:
        raise CheckError(f"bad header {lines[0] if lines else ''!r}")
    keys = expected_keys(figure, snr_grid)
    if len(lines) - 1 != len(keys):
        raise CheckError(f"{len(lines) - 1} rows, expected {len(keys)}")
    rows = []
    for line, key in zip(lines[1:], keys):
        fields = line.split(",")
        if len(fields) != 6 or tuple(fields[:3]) != key:
            raise CheckError(f"row {line!r}, expected key {key_text(key)}")
        mean, stderr, n = float(fields[3]), float(fields[4]), int(fields[5])
        if not 0 <= n <= trials:
            raise CheckError(f"row {key_text(key)} has {n} trials of {trials}")
        if n > 0 and not (math.isfinite(mean) and math.isfinite(stderr)):
            raise CheckError(f"row {key_text(key)} is not finite")
        rows.append((key_text(key), mean, n))
    return rows


def band(entry, n):
    """Standard deviation of a mean over n trials, from a reference entry."""
    return entry["sd_job_mean"] * math.sqrt(entry["trials_per_job"] / n)


def check_rows(rows, reference):
    """Band check of one job's rows; raises CheckError on the first miss."""
    for key, mean, n in rows:
        if n == 0 or key.rsplit(",", 1)[1] in BAND_EXEMPT:
            continue
        entry = reference[key]
        if abs(mean - entry["mean"]) > Z_JOB * band(entry, n) + 1e-12 * abs(entry["mean"]):
            raise CheckError(f"row {key} mean {mean:.6g} outside reference "
                             f"{entry['mean']:.6g} +- {Z_JOB:g} x {band(entry, n):.3g}")


def pooled_means(all_rows):
    """Trial-weighted mean and trial count per row key over ``all_rows``,
    leaving out empty rows and the keys exempt from the band."""
    sums, counts = {}, {}
    for key, mean, n in all_rows:
        if n and key.rsplit(",", 1)[1] not in BAND_EXEMPT:
            sums[key] = sums.get(key, 0.0) + mean * n
            counts[key] = counts.get(key, 0) + n
    return {key: (total / counts[key], counts[key]) for key, total in sums.items()}


def check_pooled(all_rows, reference):
    """Band check of the pooled mean per row key over every passing job of
    a run; returns the list of misses."""
    misses = []
    for key, (pooled, n) in pooled_means(all_rows).items():
        entry = reference[key]
        if abs(pooled - entry["mean"]) > Z_POOLED * band(entry, n) + 1e-12 * abs(entry["mean"]):
            misses.append(f"pooled {key} mean {pooled:.6g} over {n} trials outside reference "
                          f"{entry['mean']:.6g} +- {Z_POOLED:g} x {band(entry, n):.3g}")
    return misses


def panel_key(figure):
    return f"{figure}_panel"


def channel_fingerprint(harness, config, clusters, base_seed):
    """The first row of the first matrix ``harness.draw_channels`` draws for
    trial 0 of ``base_seed`` on the given scenario, as [re, im] pairs. It
    changes when the seed scheme does."""
    channels = harness.draw_channels(harness.build_geometry(config, clusters), base_seed, 0)
    return [[float(z.real), float(z.imag)] for z in channels[min(channels)][0]]


def same_fingerprint(a, b):
    scale = max(abs(x) for pair in a for x in pair)
    return len(a) == len(b) and all(abs(x - y) <= 1e-6 * scale
                                    for p, q in zip(a, b) for x, y in zip(p, q))


def check_panel(panel_rows, panel):
    """Compare the pooled means of a fixed panel's rows with the panel
    reference; returns the list of misses."""
    pooled = pooled_means(panel_rows)
    misses = [f"panel row {key} is empty, reference {ref:.6g}"
              for key, ref in panel["means"].items() if key not in pooled]
    for key, (mean, n) in pooled.items():
        ref = panel["means"].get(key)
        if ref is None:
            misses.append(f"panel row {key} has {n} trials, the reference has none")
        elif abs(mean - ref) > PANEL_RTOL * abs(ref):
            misses.append(f"panel row {key} mean {mean:.6g} outside reference "
                          f"{ref:.6g} +- {PANEL_RTOL:.0%}")
    return misses
