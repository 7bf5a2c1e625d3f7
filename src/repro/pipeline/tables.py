"""Reproduced tables: the published numbers (:data:`PAPER_TABLES`), the
rows of one reproduced table (:class:`TableResult`), and printing them
in the paper's layout."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .config import ExperimentConfig

if TYPE_CHECKING:
    from .runs import RunResult

__all__ = ["PAPER_TABLES", "TableResult", "format_table",
           "format_comparison", "format_scenarios"]

#: Published Tables II-V: recipe -> (accuracy %, R before 2pi, R after 2pi).
#: ``None`` marks the Ours-A "after" cell the paper leaves blank.
PAPER_TABLES: Dict[str, Dict[str, Tuple[float, float, Optional[float]]]] = {
    "MNIST": {
        "baseline": (96.67, 466.39, 460.85),
        "ours_a": (96.18, 416.07, None),
        "ours_b": (96.38, 538.78, 400.38),
        "ours_c": (96.47, 409.41, 299.87),
        "ours_d": (95.90, 375.35, 280.32),
    },
    "FMNIST": {
        "baseline": (87.98, 464.78, 461.98),
        "ours_a": (86.99, 421.49, None),
        "ours_b": (87.88, 488.11, 438.53),
        "ours_c": (86.79, 350.67, 305.86),
        "ours_d": (85.76, 450.73, 229.70),
    },
    "KMNIST": {
        "baseline": (86.92, 460.61, 445.57),
        "ours_a": (85.26, 462.70, None),
        "ours_b": (86.83, 473.08, 432.26),
        "ours_c": (85.01, 396.84, 331.22),
        "ours_d": (83.19, 327.48, 288.42),
    },
    "EMNIST": {
        "baseline": (92.30, 463.42, 458.48),
        "ours_a": (91.61, 435.58, None),
        "ours_b": (92.36, 465.85, 443.91),
        "ours_c": (91.16, 349.61, 336.75),
        "ours_d": (90.74, 312.17, 298.09),
    },
}


@dataclass
class TableResult:
    """All rows of one reproduced table, in row order."""

    config: ExperimentConfig
    results: List[RunResult]

    @property
    def paper_dataset(self) -> str:
        return self.config.paper_dataset

    def by_recipe(self) -> Dict[str, RunResult]:
        return {result.recipe: result for result in self.results}

    def paper_rows(self) -> Dict[str, Tuple[float, float, Optional[float]]]:
        """The published values this table is compared against."""
        return PAPER_TABLES[self.paper_dataset]


_TABLE_NUMBER = {"MNIST": "II", "FMNIST": "III", "KMNIST": "IV",
                 "EMNIST": "V"}


def _fmt(value: Optional[float], digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def format_table(table: TableResult) -> str:
    """Render a reproduced table with the paper's columns."""
    name = table.paper_dataset
    lines = [
        f"TABLE {_TABLE_NUMBER[name]}: {name} result "
        f"(family '{table.config.family}', {table.config.system.n}x"
        f"{table.config.system.n} masks)",
        f"{'Model':<14} {'Accuracy (%)':>12} {'R before 2pi':>14} "
        f"{'R after 2pi':>13}",
    ]
    for result in table.results:
        lines.append(
            f"{result.label:<14} {result.accuracy * 100:>12.2f} "
            f"{result.roughness_before:>14.2f} "
            f"{result.roughness_after:>13.2f}"
        )
    return "\n".join(lines)


def format_comparison(table: TableResult) -> str:
    """Side-by-side measured vs published rows, plus shape checks."""
    name = table.paper_dataset
    paper = table.paper_rows()
    lines = [
        f"{name}: measured (this repro) vs published (paper)",
        f"{'Model':<14} {'acc%':>7} {'R_pre':>9} {'R_post':>9} | "
        f"{'acc%':>7} {'R_pre':>9} {'R_post':>9}",
    ]
    for result in table.results:
        ref = paper.get(result.recipe)
        ref_txt = (
            f"{_fmt(ref[0]):>7} {_fmt(ref[1]):>9} {_fmt(ref[2]):>9}"
            if ref else " " * 27
        )
        lines.append(
            f"{result.label:<14} {result.accuracy * 100:>7.2f} "
            f"{result.roughness_before:>9.2f} "
            f"{result.roughness_after:>9.2f} | {ref_txt}"
        )
    by = table.by_recipe()
    if {"baseline", "ours_c"} <= set(by):
        base, ours_c = by["baseline"], by["ours_c"]
        reduction = 1 - ours_c.roughness_after / base.roughness_before
        lines.append(
            f"headline: Ours-C post-2pi roughness is {reduction * 100:.1f}% "
            f"below the baseline's pre-2pi roughness"
        )
    return "\n".join(lines)


def _scenario_notes(metrics) -> str:
    """One-line extras per run: which physics the scenario exercised."""
    notes = []
    head = metrics.get("differential_head")
    if head:
        notes.append(f"differential head ({head.get('detector_regions')} "
                     f"regions)")
    coherence = metrics.get("coherence_score")
    if coherence:
        penalty = coherence.get("coherence_penalty")
        modes = coherence.get("coherence_modes")
        if penalty is not None:
            notes.append(f"coherence penalty {penalty * 100:.2f}% "
                         f"(M={modes})")
    quantize = metrics.get("quantize")
    if quantize:
        gap = quantize.get("quantization_gap")
        if gap is not None:
            notes.append(f"{quantize.get('levels')} levels "
                         f"(quant gap {gap * 100:.2f}%)")
    return ", ".join(notes)


def format_scenarios(runs: Sequence) -> str:
    """Render the physics-scenario columns for stored runs.

    Accepts anything with ``stage_metrics()`` (``RunResult`` /
    ``RecipeResult``).  Only runs whose stages reported a
    ``deployed_accuracy`` (i.e. physics-scenario runs) appear; returns
    ``""`` when there are none, so legacy reports print byte-identically.
    """
    rows = []
    for run in runs:
        metrics = run.stage_metrics()
        deploy = metrics.get("deploy_gap")
        if not deploy or deploy.get("deployed_accuracy") is None:
            continue
        name = getattr(run, "path", None)
        name = run.recipe if name is None else Path(name).name
        rows.append((
            name,
            run.recipe,
            deploy.get("trained_accuracy"),
            deploy.get("deployed_accuracy"),
            deploy.get("deployment_gap"),
            _scenario_notes(metrics),
        ))
    if not rows:
        return ""

    def _pct(value) -> str:
        return "-" if value is None else f"{value * 100:.2f}"

    width = max(3, *(len(row[0]) for row in rows))
    lines = [
        "Physics scenarios (trained vs deployed accuracy)",
        f"{'Run':<{width}} {'Recipe':<18} {'acc%':>7} {'deploy%':>8} "
        f"{'gap%':>6}  notes",
    ]
    for name, recipe, trained, deployed, gap, notes in rows:
        lines.append(
            f"{name:<{width}} {recipe:<18} {_pct(trained):>7} "
            f"{_pct(deployed):>8} {_pct(gap):>6}  {notes}".rstrip()
        )
    return "\n".join(lines)
