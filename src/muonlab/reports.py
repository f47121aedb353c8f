"""Report emission: run/summary CSVs, SVG line plots, and JSON sidecars.

The columns of the run, summary and ablation CSVs and the keys of the JSON
reports are the fields of the result dataclasses they write. `emit_reports`
builds every text of a result before it writes the first file. Files are
written atomically (temp file in the target directory, then rename) and
are byte-deterministic: floats are formatted with Python's shortest
round-trip repr, line endings are fixed to "\\n", and nothing derived from
the clock enters the output (wall_ms is data, recorded as 0 unless a run
opted into wall-time capture).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import asdict, fields
from typing import Sequence, get_type_hints

import numpy as np

from .errors import ConfigError
from .harness import (
    AblationCell,
    AblationTable,
    EvalRow,
    RunRecord,
    SweepResult,
    TelescopeResult,
)


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _values(obj, names: Sequence[str]) -> list:
    return [getattr(obj, name) for name in names]


# Each file's columns are the fields of the result dataclass it writes.
SUMMARY_CSV_COLUMNS = tuple(name for name in _names(RunRecord)
                            if name not in ("rows", "config"))
# A run CSV row: the run's identity (the summary's first three columns),
# then the fields of one EvalRow.
_RUN_KEYS = SUMMARY_CSV_COLUMNS[:3]
_ROW_KEYS = _names(EvalRow)
RUN_CSV_COLUMNS = _RUN_KEYS + _ROW_KEYS

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
            "#aec7e8", "#ffbb78")


def _xml_escape(text: str) -> str:
    """``&``, ``>`` and ``<`` as XML entities, in the order
    `xml.sax.saxutils.escape` replaces them (whose import loads
    `urllib.request`, `http.client`, `email` and `ssl`)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def format_value(v) -> str:
    """CSV cell text: ints plain, floats as shortest round-trip, None empty."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def run_csv_text(record: RunRecord) -> str:
    key = _values(record, _RUN_KEYS)
    return _csv_text(RUN_CSV_COLUMNS,
                     [key + _values(r, _ROW_KEYS) for r in record.rows])


def summary_csv_text(records: Sequence[RunRecord]) -> str:
    return _csv_text(SUMMARY_CSV_COLUMNS,
                     [_values(rec, SUMMARY_CSV_COLUMNS) for rec in records])


def write_run_csv(record: RunRecord, path: str) -> None:
    _atomic_write_text(path, run_csv_text(record))


# The parser of each run CSV column, from the type of the field it holds;
# an empty cell is a None.
_PARSERS = {str: str, int: int, float: float,
            float | None: lambda cell: None if cell == "" else float(cell)}
_RUN_CSV_PARSERS = tuple(
    _PARSERS[hints[name]]
    for hints, names in ((get_type_hints(RunRecord), _RUN_KEYS),
                         (get_type_hints(EvalRow), _ROW_KEYS))
    for name in names)


def read_run_csv(path: str) -> tuple[str, str, int, tuple[EvalRow, ...]]:
    """Parse a run CSV back into (run_id, optimizer, batch_size, eval rows).

    Exact inverse of `write_run_csv` for finite and non-finite floats alike,
    because cells are written with round-trip repr, and for the None
    ``train_loss`` and ``grad_global_norm`` of val-only rows, which are
    written as empty cells. A row with the wrong number of cells, or with a
    cell that does not parse as its field's type, raises ConfigError naming
    the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != RUN_CSV_COLUMNS:
            raise ConfigError(f"unexpected run CSV header in {path}: {header}")
        key = ["", "", 0]
        rows = []
        for cells in reader:
            where = f"run CSV {path} line {reader.line_num}"
            if len(cells) != len(RUN_CSV_COLUMNS):
                raise ConfigError(f"{where}: {len(cells)} cells, expected "
                                  f"{len(RUN_CSV_COLUMNS)}")
            try:
                values = [parse(c) for parse, c in zip(_RUN_CSV_PARSERS, cells)]
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            key = values[:len(_RUN_KEYS)]
            rows.append(EvalRow(*values[len(_RUN_KEYS):]))
    return (*key, tuple(rows))


# ---------------------------------------------------------------------------
# SVG line plots (no external renderer; plain polylines on linear axes)
# ---------------------------------------------------------------------------

def svg_line_plot(series: dict[str, tuple[Sequence[float], Sequence[float]]],
                  title: str, x_label: str, y_label: str,
                  width: int = 640, height: int = 400) -> str:
    """Render labeled polyline series on linear axes as standalone SVG text."""
    ml, mr, mt, mb = 62.0, 16.0, 30.0, 46.0
    plot_w = width - ml - mr
    plot_h = height - mt - mb

    finite_pts = []
    for xs, ys in series.values():
        finite_pts.extend(
            (float(x), float(y)) for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_xml_escape(title)}</text>',
    ]
    axis = (
        f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" '
        f'y2="{mt + plot_h:.2f}" stroke="black"/>'
        f'<line x1="{ml:.2f}" y1="{mt + plot_h:.2f}" x2="{ml + plot_w:.2f}" '
        f'y2="{mt + plot_h:.2f}" stroke="black"/>'
    )
    parts.append(axis)
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 8:.2f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">'
        f'{_xml_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{mt + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {mt + plot_h / 2:.2f})">'
        f'{_xml_escape(y_label)}</text>'
    )

    if finite_pts:
        xmin = min(p[0] for p in finite_pts)
        xmax = max(p[0] for p in finite_pts)
        ymin = min(p[1] for p in finite_pts)
        ymax = max(p[1] for p in finite_pts)
        if xmax == xmin:
            pad = abs(xmin) * 0.5 or 0.5
            xmin, xmax = xmin - pad, xmax + pad
        if ymax == ymin:
            pad = abs(ymin) * 0.5 or 0.5
            ymin, ymax = ymin - pad, ymax + pad

        def px(x: float) -> float:
            return ml + (x - xmin) / (xmax - xmin) * plot_w

        def py(y: float) -> float:
            return mt + plot_h - (y - ymin) / (ymax - ymin) * plot_h

        for i in range(5):
            xt = xmin + (xmax - xmin) * i / 4
            yt = ymin + (ymax - ymin) * i / 4
            parts.append(
                f'<line x1="{px(xt):.2f}" y1="{mt + plot_h:.2f}" '
                f'x2="{px(xt):.2f}" y2="{mt + plot_h + 4:.2f}" stroke="black"/>'
                f'<text x="{px(xt):.2f}" y="{mt + plot_h + 16:.2f}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                f'{xt:g}</text>'
            )
            parts.append(
                f'<line x1="{ml - 4:.2f}" y1="{py(yt):.2f}" x2="{ml:.2f}" '
                f'y2="{py(yt):.2f}" stroke="black"/>'
                f'<text x="{ml - 7:.2f}" y="{py(yt) + 3.5:.2f}" '
                f'text-anchor="end" font-family="sans-serif" font-size="10">'
                f'{yt:g}</text>'
            )
        for k, (label, (xs, ys)) in enumerate(series.items()):
            color = _PALETTE[k % len(_PALETTE)]
            pts = " ".join(
                f"{px(float(x)):.2f},{py(float(y)):.2f}"
                for x, y in zip(xs, ys)
                if math.isfinite(x) and math.isfinite(y)
            )
            if pts:
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
            ly = mt + 14 * k + 10
            parts.append(
                f'<line x1="{ml + 8:.2f}" y1="{ly:.2f}" x2="{ml + 28:.2f}" '
                f'y2="{ly:.2f}" stroke="{color}" stroke-width="1.5"/>'
                f'<text x="{ml + 33:.2f}" y="{ly + 3.5:.2f}" '
                f'font-family="sans-serif" font-size="10">{_xml_escape(label)}</text>'
            )
    else:
        parts.append(
            f'<text x="{ml + plot_w / 2:.2f}" y="{mt + plot_h / 2:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'no data</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Dispatching emitter: each builder maps file names to texts, in file order
# ---------------------------------------------------------------------------

def _loss_curve(record: RunRecord) -> tuple[list[float], list[float]]:
    """(tokens seen, val loss) at each eval row of a run."""
    return ([float(r.tokens_seen) for r in record.rows],
            [r.val_loss for r in record.rows])


def _emit_runs(records: Sequence[RunRecord]) -> dict[str, str]:
    """One run CSV per record, in order, then ``summary.csv`` over all."""
    texts = {f"run_{rec.run_id}.csv": run_csv_text(rec) for rec in records}
    texts["summary.csv"] = summary_csv_text(records)
    return texts


def _emit_sweep(result: SweepResult) -> dict[str, str]:
    texts = _emit_runs([result.records[c.run_id] for c in result.cells])
    bs = sorted(result.ratios)
    texts["ratio_vs_batch.svg"] = svg_line_plot(
        {"tokens ratio adamw/muon": (bs, [result.ratios[b] for b in bs])},
        title="Token-consumption ratio vs batch size",
        x_label="batch size (samples)", y_label="ratio")
    b_star = max(result.batch_grid, default=None)
    texts["loss_vs_tokens.svg"] = svg_line_plot(
        {f"{c.optimizer} (B={b_star})": _loss_curve(result.records[c.run_id])
         for c in result.cells if c.batch_size == b_star},
        title="Validation loss vs tokens",
        x_label="tokens (samples)", y_label="val loss")
    # every field but the per-run detail, with the ratios keyed (and sorted)
    # as strings
    report = {name: getattr(result, name) for name in _names(SweepResult)
              if name not in ("cells", "records")}
    report["ratios"] = {str(b): r for b, r in result.ratios.items()}
    texts["sweep_report.json"] = _json_text(report)
    return texts


def _emit_ablation(table: AblationTable) -> dict[str, str]:
    texts = _emit_runs([table.records[c.run_id] for c in table.cells])
    names = _names(AblationCell)
    texts["ablation_table.csv"] = _csv_text(
        ["cell" if name == "name" else name for name in names],
        [_values(c, names) for c in table.cells])
    texts["ablation_loss_vs_tokens.svg"] = svg_line_plot(
        {c.name: _loss_curve(table.records[c.run_id]) for c in table.cells},
        title="Ablation cells: validation loss vs tokens",
        x_label="tokens (samples)", y_label="val loss")
    return texts


def _emit_telescope(result: TelescopeResult) -> dict[str, str]:
    header = ("stage", "width", "eta", "weight_decay", "val_loss", "is_best")
    rows = [(s_idx, stage.width, eta, lam, stage.val_losses[i][j],
             eta == stage.best_eta and lam == stage.best_lambda)
            for s_idx, stage in enumerate(result.stages)
            for i, eta in enumerate(stage.etas)
            for j, lam in enumerate(stage.lambdas)]
    widths = [float(s.width) for s in result.stages]
    path_svg = svg_line_plot(
        {"best eta": (widths, [s.best_eta for s in result.stages]),
         "best weight decay": (widths, [s.best_lambda for s in result.stages])},
        title="Telescoping sweep: winning hyperparameters vs width",
        x_label="hidden width", y_label="value")
    # The report is every field, with each stage as a dict of its fields.
    return {"telescope_stages.csv": _csv_text(header, rows),
            "telescope_path.svg": path_svg,
            "telescope_report.json": _json_text(asdict(result))}


_BUILDERS = {
    RunRecord: lambda record: _emit_runs([record]),
    SweepResult: _emit_sweep,
    AblationTable: _emit_ablation,
    TelescopeResult: _emit_telescope,
}


def emit_reports(result, out_dir: str) -> list[str]:
    """Write the report files of a run, sweep, ablation or telescope result,
    each text built before the first write; returns the paths in file order."""
    build = _BUILDERS.get(type(result))
    if build is None:
        raise ConfigError(f"emit_reports does not know {type(result).__name__}")
    paths = []
    for name, text in build(result).items():
        paths.append(os.path.join(out_dir, name))
        _atomic_write_text(paths[-1], text)
    return paths
