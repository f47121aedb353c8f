"""Report emission: run/summary CSVs, SVG line plots, and JSON sidecars.

All files are written atomically (temp file in the target directory, then
rename) and are byte-deterministic: floats are formatted with Python's
shortest round-trip repr, line endings are fixed to "\\n", and nothing
derived from the clock enters the output (wall_ms is data, recorded as 0
unless a run opted into wall-time capture).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .harness import (
    AblationTable,
    EvalRow,
    RunRecord,
    SweepResult,
    TelescopeResult,
)

RUN_CSV_COLUMNS = (
    "run_id", "optimizer", "batch_size", "step", "tokens_seen",
    "train_loss", "val_loss", "grad_global_norm", "update_rms", "eta_t",
    "wall_ms",
)

SUMMARY_CSV_COLUMNS = (
    "run_id", "optimizer", "batch_size", "tokens_to_target", "terminated",
    "loss_spike_count", "final_val_loss", "state_scalar_count",
)

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
    rows = [
        (record.run_id, record.optimizer, record.batch_size, r.step,
         r.tokens_seen, r.train_loss, r.val_loss, r.grad_global_norm,
         r.update_rms, r.eta_t, r.wall_ms)
        for r in record.rows
    ]
    return _csv_text(RUN_CSV_COLUMNS, rows)


def summary_csv_text(records: Sequence[RunRecord]) -> str:
    rows = [
        (rec.run_id, rec.optimizer, rec.batch_size, rec.tokens_to_target,
         rec.terminated, rec.loss_spike_count, rec.final_val_loss,
         rec.state_scalar_count)
        for rec in records
    ]
    return _csv_text(SUMMARY_CSV_COLUMNS, rows)


def write_run_csv(record: RunRecord, path: str) -> None:
    _atomic_write_text(path, run_csv_text(record))


def _float_or_none(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def read_run_csv(path: str) -> tuple[str, str, int, tuple[EvalRow, ...]]:
    """Parse a run CSV back into (run_id, optimizer, batch_size, eval rows).

    Exact inverse of `write_run_csv` for finite and non-finite floats alike,
    because cells are written with round-trip repr, and for the None
    ``train_loss`` and ``grad_global_norm`` of val-only rows, which are
    written as empty cells.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != RUN_CSV_COLUMNS:
            raise ConfigError(f"unexpected run CSV header in {path}: {header}")
        run_id = ""
        optimizer = ""
        batch_size = 0
        rows = []
        for cells in reader:
            run_id, optimizer = cells[0], cells[1]
            batch_size = int(cells[2])
            rows.append(EvalRow(
                step=int(cells[3]), tokens_seen=int(cells[4]),
                train_loss=_float_or_none(cells[5]), val_loss=float(cells[6]),
                grad_global_norm=_float_or_none(cells[7]),
                update_rms=float(cells[8]), eta_t=float(cells[9]),
                wall_ms=float(cells[10]),
            ))
    return run_id, optimizer, batch_size, tuple(rows)


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
# Dispatching emitter
# ---------------------------------------------------------------------------

def _emit_runs(records: Sequence[RunRecord], out_dir: str) -> list[str]:
    """Write one run CSV per record, then ``summary.csv`` over all of them,
    in the given order; returns the paths in that order."""
    written = []
    for rec in records:
        path = os.path.join(out_dir, f"run_{rec.run_id}.csv")
        _atomic_write_text(path, run_csv_text(rec))
        written.append(path)
    summary_path = os.path.join(out_dir, "summary.csv")
    _atomic_write_text(summary_path, summary_csv_text(records))
    written.append(summary_path)
    return written


def _emit_sweep(result: SweepResult, out_dir: str) -> list[str]:
    written = _emit_runs([result.records[c.run_id] for c in result.cells],
                         out_dir)

    bs = sorted(result.ratios)
    ratio_svg = svg_line_plot(
        {"tokens ratio adamw/muon": (bs, [result.ratios[b] for b in bs])},
        title="Token-consumption ratio vs batch size",
        x_label="batch size (samples)", y_label="ratio",
    )
    ratio_path = os.path.join(out_dir, "ratio_vs_batch.svg")
    _atomic_write_text(ratio_path, ratio_svg)
    written.append(ratio_path)

    loss_series: dict[str, tuple[list[float], list[float]]] = {}
    if result.batch_grid:
        b_star = max(result.batch_grid)
        for kind in ("muon", "adamw"):
            rec = result.records.get(f"{kind}-b{b_star}")
            if rec is not None:
                loss_series[f"{kind} (B={b_star})"] = (
                    [float(r.tokens_seen) for r in rec.rows],
                    [r.val_loss for r in rec.rows],
                )
    loss_svg = svg_line_plot(
        loss_series, title="Validation loss vs tokens",
        x_label="tokens (samples)", y_label="val loss",
    )
    loss_path = os.path.join(out_dir, "loss_vs_tokens.svg")
    _atomic_write_text(loss_path, loss_svg)
    written.append(loss_path)

    report = {
        "target_loss": result.target_loss,
        "batch_grid": list(result.batch_grid),
        "ratios": {str(b): result.ratios[b] for b in result.ratios},
        "ratio_monotone_nondecreasing": result.ratio_monotone_nondecreasing,
        "provenance": result.provenance,
    }
    json_path = os.path.join(out_dir, "sweep_report.json")
    _atomic_write_text(json_path, _json_text(report))
    written.append(json_path)
    return written


def _emit_ablation(table: AblationTable, out_dir: str) -> list[str]:
    written = _emit_runs([table.records[c.run_id] for c in table.cells],
                         out_dir)

    header = ("cell", "run_id", "batch_size", "final_val_loss",
              "steps_to_target", "loss_spike_count", "state_scalar_count",
              "terminated")
    rows = [
        (c.name, c.run_id, c.batch_size, c.final_val_loss, c.steps_to_target,
         c.loss_spike_count, c.state_scalar_count, c.terminated)
        for c in table.cells
    ]
    table_path = os.path.join(out_dir, "ablation_table.csv")
    _atomic_write_text(table_path, _csv_text(header, rows))
    written.append(table_path)

    series = {
        c.name: (
            [float(r.tokens_seen) for r in table.records[c.run_id].rows],
            [r.val_loss for r in table.records[c.run_id].rows],
        )
        for c in table.cells
    }
    svg = svg_line_plot(series, title="Ablation cells: validation loss vs tokens",
                        x_label="tokens (samples)", y_label="val loss")
    svg_path = os.path.join(out_dir, "ablation_loss_vs_tokens.svg")
    _atomic_write_text(svg_path, svg)
    written.append(svg_path)
    return written


def _emit_telescope(result: TelescopeResult, out_dir: str) -> list[str]:
    header = ("stage", "width", "eta", "weight_decay", "val_loss", "is_best")
    rows = []
    for s_idx, stage in enumerate(result.stages):
        for i, eta in enumerate(stage.etas):
            for j, lam in enumerate(stage.lambdas):
                best = (eta == stage.best_eta and lam == stage.best_lambda)
                rows.append((s_idx, stage.width, eta, lam,
                             stage.val_losses[i][j], best))
    csv_path = os.path.join(out_dir, "telescope_stages.csv")
    _atomic_write_text(csv_path, _csv_text(header, rows))

    widths = [float(s.width) for s in result.stages]
    svg = svg_line_plot(
        {
            "best eta": (widths, [s.best_eta for s in result.stages]),
            "best weight decay": (widths, [s.best_lambda for s in result.stages]),
        },
        title="Telescoping sweep: winning hyperparameters vs width",
        x_label="hidden width", y_label="value",
    )
    svg_path = os.path.join(out_dir, "telescope_path.svg")
    _atomic_write_text(svg_path, svg)

    report = {
        "start_width": result.start_width,
        "end_width": result.end_width,
        "stages": [
            {
                "width": s.width,
                "etas": list(s.etas),
                "lambdas": list(s.lambdas),
                "val_losses": [list(row) for row in s.val_losses],
                "best_eta": s.best_eta,
                "best_lambda": s.best_lambda,
                "best_val_loss": s.best_val_loss,
            }
            for s in result.stages
        ],
        "provenance": result.provenance,
    }
    json_path = os.path.join(out_dir, "telescope_report.json")
    _atomic_write_text(json_path, _json_text(report))
    return [csv_path, svg_path, json_path]


def emit_reports(result, out_dir: str) -> list[str]:
    """Write the report files for a run, sweep, ablation, or telescope result.

    Returns the written paths in a deterministic order.
    """
    if isinstance(result, RunRecord):
        return _emit_runs([result], out_dir)
    if isinstance(result, SweepResult):
        return _emit_sweep(result, out_dir)
    if isinstance(result, AblationTable):
        return _emit_ablation(result, out_dir)
    if isinstance(result, TelescopeResult):
        return _emit_telescope(result, out_dir)
    raise ConfigError(f"emit_reports does not know {type(result).__name__}")


__all__ = [
    "RUN_CSV_COLUMNS",
    "SUMMARY_CSV_COLUMNS",
    "emit_reports",
    "format_value",
    "read_run_csv",
    "run_csv_text",
    "summary_csv_text",
    "svg_line_plot",
    "write_run_csv",
]
