"""Staged-artifact file formats: feature CSV, results CSV, treatment report, SVG charts."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import ModelKind
from .errors import MalformedRow, NonFiniteValue, SchemaError
from .evaluation import NR_RP, TREATMENTS, EvalConfig, EvalReport, Protocol, accuracy, recall
from .features import Bank, BANK_WIDTH, FeatureVector
from .ingest import ACTIVITY_CSV_NAMES, Activity, CSV_NAME_TO_ACTIVITY, atomic_open, csv_records
from .stats import paired_t_test

ALPHA = 0.02  # the treatment report's significance level

RESULTS_HEADER = [
    "protocol", "classifier", "bank", "treatment", "window",
    "activity", "metric", "value", "ci_halfwidth", "n_units",
]

# the texts `report_rows` writes in each key column of a results CSV but `window` and
# `metric`
RESULTS_KEYS = {
    "protocol": [p.value for p in Protocol],
    "classifier": [k.value for k in ModelKind],
    "bank": [b.value for b in Bank],
    "treatment": [t.name for t in TREATMENTS],
    "activity": [*ACTIVITY_CSV_NAMES.values(), "overall"],
}


def atomic_write_text(path: str | Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


FEATURES_KEY_COLUMNS = ["subject_id", "activity", "bank", "window"]


def read_window(line_no: int, text: str) -> int:
    """A CSV `window` field: ASCII digits without a leading zero, so each window size
    has one text; anything else raises `MalformedRow` naming the line."""
    if not re.fullmatch("[1-9][0-9]*", text):
        raise MalformedRow(line_no, f"window {text!r} is not a positive integer in ASCII "
                                    "digits without a leading zero")
    return int(text)


def write_features_csv(vectors: list[FeatureVector], path: str | Path) -> None:
    if not vectors:
        raise ValueError("no feature vectors to write")
    bank, window = vectors[0].bank, vectors[0].window
    width = BANK_WIDTH[bank]
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURES_KEY_COLUMNS + [f"f{i}" for i in range(width)])
        for fv in vectors:
            if fv.bank is not bank:
                raise ValueError("mixed banks in one feature file")
            if fv.window != window:
                raise ValueError("mixed windows in one feature file")
            writer.writerow(
                [fv.subject_id, ACTIVITY_CSV_NAMES[fv.activity], bank.value, str(window)]
                + [repr(float(v)) for v in fv.values]
            )


def read_features_csv(path: str | Path) -> list[FeatureVector]:
    vectors = []
    keys = len(FEATURES_KEY_COLUMNS)
    with closing(csv_records(path)) as records:
        _, header = next(records, (1, None))
        if not header or header[:keys] != FEATURES_KEY_COLUMNS:
            raise MalformedRow(1, "bad feature CSV header: expected it to start with "
                                  + ",".join(FEATURES_KEY_COLUMNS))
        width = len(header) - keys
        for line_no, row in records:
            try:
                bank = Bank(row[2])
                activity = CSV_NAME_TO_ACTIVITY[row[1]]
                values = np.array([float(v) for v in row[keys:]])
            except (ValueError, KeyError):
                raise MalformedRow(line_no, "unparseable feature row")
            if width != BANK_WIDTH[bank]:
                raise MalformedRow(
                    line_no, f"bank {bank.value!r} has width {BANK_WIDTH[bank]}, the row {width}")
            window = read_window(line_no, row[3])
            if vectors and window != vectors[0].window:
                raise MalformedRow(line_no, f"window {window} differs from the first row's "
                                            f"{vectors[0].window}")
            non_finite = np.flatnonzero(~np.isfinite(values))
            if non_finite.size:
                raise NonFiniteValue(line_no, header[keys + non_finite[0]])
            vectors.append(FeatureVector(bank, values, activity, row[0], window))
    return vectors


def is_features_csv(path: str | Path) -> bool:
    prefix = ",".join(FEATURES_KEY_COLUMNS[:3]).encode()
    with Path(path).open("rb") as fh:
        return fh.read(len(prefix)) == prefix


def report_rows(config: EvalConfig, report: EvalReport) -> list[list[str]]:
    """Per activity a recall row, then an overall-accuracy row: first for the pooled
    confusion (with the CI), then for each unit's (`recall:<unit>`, `accuracy:<unit>`)."""
    base = [
        config.protocol.value,
        config.model_spec.kind.value,
        config.bank.value,
        config.treatment.name,
        str(config.samples_per_window),
    ]
    n_units = str(report.n_units)
    blocks = [("", report.confusion, repr(report.ci_halfwidth))]
    # per-unit rows enable paired t-tests across treatments downstream
    blocks += [(f":{unit}", conf, "")
               for unit, conf in zip(report.unit_ids, report.unit_confusions)]
    rows = []
    for suffix, conf, ci in blocks:
        for act, value in zip(Activity, recall(conf)):
            rows.append(base + [ACTIVITY_CSV_NAMES[act], f"recall{suffix}",
                                repr(float(value)), "", n_units])
        rows.append(base + ["overall", f"accuracy{suffix}", repr(float(accuracy(conf))),
                            ci, n_units])
    return rows


def write_results_csv(rows: list[list[str]], path: str | Path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        writer.writerows(rows)


def read_results_csv(path: str | Path) -> list[dict[str, str]]:
    """The rows of a results CSV as {column: text}; every row has all the columns, a
    finite `value`, a `window` that `read_window` accepts, a key of `RESULTS_KEYS` in each
    of its columns and a `metric` of `recall` or `accuracy`, optionally with
    `:<unit>`. Anything else raises `MalformedRow` naming the line and the column."""
    rows = []
    with closing(csv_records(path)) as records:
        _, header = next(records, (1, None))
        if header != RESULTS_HEADER:
            raise MalformedRow(1, f"bad results header {header!r}")
        for line_no, row in records:
            record = dict(zip(RESULTS_HEADER, row))
            try:
                value = float(record["value"])
            except ValueError:
                raise MalformedRow(line_no, "unparseable value") from None
            if not math.isfinite(value):
                raise NonFiniteValue(line_no, "value")
            read_window(line_no, record["window"])
            for column, keys in RESULTS_KEYS.items():
                if record[column] not in keys:
                    raise MalformedRow(line_no, f"{column} {record[column]!r} is none of "
                                                + ", ".join(keys))
            if not re.fullmatch("(recall|accuracy)(:.+)?", record["metric"], re.DOTALL):
                raise MalformedRow(line_no, f"metric {record['metric']!r} is not recall or "
                                            "accuracy, optionally followed by :<unit>")
            rows.append(record)
    return rows


def treatment_report(rows: list[dict[str, str]]) -> str:
    """Markdown with one row per (cell, treatment) of results-CSV rows: the mean over the
    treatment's units and, for a treatment other than NR-RP sharing at least 2 units
    with it, a paired t-test against NR-RP over the units they share. A unit's value
    given twice for one (cell, treatment) raises SchemaError."""
    # cell key -> treatment -> {unit -> value}
    cells: dict[tuple, dict[str, dict[str, float]]] = {}
    for r in rows:
        if ":" not in r["metric"]:
            continue
        _, unit = r["metric"].split(":", 1)
        key = (r["protocol"], r["classifier"], r["bank"], r["window"], r["activity"])
        units = cells.setdefault(key, {}).setdefault(r["treatment"], {})
        if unit in units:
            raise SchemaError(f"unit {unit!r} of {' '.join(key)} {r['treatment']} is "
                              "given twice")
        units[unit] = float(r["value"])

    base = NR_RP.name
    lines = ["# Treatment comparison report", "",
             f"Each treatment is paired with {base} over the units they share; t > 0 means "
             f"it scored higher. p ≤ {ALPHA} (α) is in **boldface**.", "",
             "| protocol | classifier | bank | window | activity | treatment | mean | t | p |",
             "|---|---|---|---|---|---|---|---|---|"]
    # windows in numeric order; in a cell, the baseline first
    for key in sorted(cells, key=lambda key: (*key[:3], int(key[3]), key[4])):
        baseline = cells[key].get(base, {})
        for name, units in sorted(cells[key].items(), key=lambda item: (item[0] != base, item[0])):
            shared = sorted(set(units) & set(baseline)) if name != base else []
            t = p = ""
            if len(shared) >= 2:
                res = paired_t_test(np.array([units[u] for u in shared]),
                                    np.array([baseline[u] for u in shared]))
                t, p = f"{res.t_stat:.3f}", f"{res.p_two_sided:.4f}"
                p = f"**{p}**" if res.p_two_sided <= ALPHA else p
            mean = sum(units.values()) / len(units)
            lines.append("| " + " | ".join((*key, name, f"{mean:.4f}", t, p)) + " |")
    return "\n".join(lines) + "\n"


def sweep_svg(series: dict[str, dict[int, float]]) -> str:
    """Self-contained SVG line chart; one polyline per series."""
    width, height = 720, 440
    ml, mr, mt, mb = 60, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    all_sizes = sorted({s for pts in series.values() for s in pts})
    x0, x1 = min(all_sizes), max(all_sizes)
    xspan = max(x1 - x0, 1)

    def sx(v):
        return ml + (v - x0) / xspan * pw

    def sy(v):
        return mt + (1.0 - v) * ph

    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">Accuracy vs samples per window</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle" font-size="12">samples per window</text>',
        f'<text x="16" y="{mt + ph / 2}" font-size="12" transform="rotate(-90 16 {mt + ph / 2})" text-anchor="middle">overall accuracy</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{ml - 8}" y="{sy(frac) + 4}" text-anchor="end" font-size="10">{frac:.2f}</text>'
        )
    for s in all_sizes:
        parts.append(
            f'<text x="{sx(s)}" y="{mt + ph + 16}" text-anchor="middle" font-size="10">{s}</text>'
        )
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = palette[i % len(palette)]
        # each further round of the palette draws dashes of its own length: the first
        # six series are solid, the next six "3 3", then "6 3", and so on
        rounds = i // len(palette)
        dash = f' stroke-dasharray="{3 * rounds} 3"' if rounds else ""
        coords = " ".join(f"{sx(s):.1f},{sy(v):.1f}" for s, v in sorted(pts.items()))
        if len(pts) > 1:
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"{dash}/>')
        for s, v in sorted(pts.items()):
            parts.append(f'<circle cx="{sx(s):.1f}" cy="{sy(v):.1f}" r="3" fill="{color}"/>')
        label_x, label_y = ml + pw + 10, mt + 16 * i + 10
        if dash:  # a swatch of the dash before the name
            parts.append(f'<line x1="{label_x}" y1="{label_y - 4}" x2="{label_x + 20}" '
                         f'y2="{label_y - 4}" stroke="{color}" stroke-width="2"{dash}/>')
            label_x += 26
        parts.append(
            f'<text x="{label_x}" y="{label_y}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    input_digests: dict[str, str]
    duration_s: float
    output_digests: dict[str, str] = field(default_factory=dict)
    toolkit_version: str = __version__
    health: dict | None = None  # grid's run-health counters; omitted when None

    def to_json(self) -> str:
        fields = {k: v for k, v in self.__dict__.items() if v is not None}
        return json.dumps(fields, indent=2, sort_keys=True) + "\n"


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
