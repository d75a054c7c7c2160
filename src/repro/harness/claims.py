"""The paper's claims, each checked against a registered scenario's rows.

A :class:`Claim` names the scenario it reads (fig1, fig4-fig11) and a
measure over that scenario's rows: a spec-backed scenario's
``generate(cells)`` over its spec's resolved cells, or a spec-less
one's ``generate(quick=...)``. Each distinct spec resolves once, so
Figs. 4-6 share one resolution of the evaluation grid. A shape
claim (who wins, which way a trend goes) gets a verdict. A magnitude
claim also carries the paper's number: it gets the measured value and
the gap in percentage points, and no verdict, because the absolute
numbers come from a calibrated simulator, not the authors' testbed.

The ``claims`` scenario renders the markdown committed as
``EXPERIMENTS.md``::

    python -m repro scenario run claims > EXPERIMENTS.md

``tests/test_harness_claims.py`` pins that file at quick fidelity, so a
physics change shows its paper-gap delta in review.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.scenario.registry import get_scenario, register_scenario
from repro.scenario.runner import run_spec

AMD = ("MI210", "MI250")
THIRTEEN_B = ("gpt3-13b", "llama2-13b")


@dataclass(frozen=True)
class Claim:
    """One paper claim over one registered scenario's rows.

    ``measure`` maps the rows to ``(holds, evidence)`` for a shape
    claim, where evidence names the numbers the verdict rests on, or
    to the measured fraction for a magnitude claim, whose ``paper`` is
    the paper's number as a fraction.
    """

    id: str
    source: str
    statement: str
    scenario: str
    measure: Callable[[Any], Any]
    paper: Optional[float] = None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ran(rows):
    """Feasible rows; fig4, fig10 and fig11 keep infeasible cells."""
    return [row for row in rows if not row.get("skipped")]


def _cell(rows, **match):
    """The one row whose fields equal ``match``."""
    (row,) = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return row


def _batch_trend(rows):
    cells = sorted(rows, key=lambda r: (r["strategy"], r["model"], r["batch"]))
    series: Dict[Any, List[float]] = {}
    for r in cells:
        series.setdefault((r["strategy"], r["model"]), []).append(r["overlapped_ms"])
    return all(s == sorted(s) for s in series.values()), {
        f"{r['strategy']} {r['model']} b{r['batch']} ms": r["overlapped_ms"]
        for r in cells
    }


def _model_trend(rows):
    # fig1 emits its FSDP models smallest first.
    fsdp = [r for r in rows if r["strategy"] == "fsdp"]
    batch = min(r["batch"] for r in fsdp)
    shares = {
        f"{r['model']} b{batch}": r["overlap_ratio_eq2"]
        for r in fsdp if r["batch"] == batch
    }
    values = list(shares.values())
    holds = len(values) >= 2 and all(
        b >= a - 0.02 for a, b in zip(values, values[1:])
    )
    return holds, shares


def _a100_13b_infeasible(rows):
    cells = [
        r for r in rows
        if r["gpu"] == "A100" and r["model"] in THIRTEEN_B
        and r["strategy"] == "fsdp"
    ]
    skipped = sum(1 for r in cells if r["skipped"])
    return bool(cells) and skipped == len(cells), {
        "infeasible": skipped, "cells": len(cells),
    }


def _worst_slowdown(rows):
    ran = _ran(rows)
    worst = max(ran, key=lambda r: r["compute_slowdown"])
    amd = max(r["compute_slowdown"] for r in ran if r["gpu"] in AMD)
    nvidia = max(r["compute_slowdown"] for r in ran if r["gpu"] not in AMD)
    holds = (
        worst["gpu"] == "MI250" and worst["model"] in THIRTEEN_B
        and worst["batch"] == min(r["batch"] for r in ran) and amd > nvidia
    )
    return holds, {
        f"{worst['gpu']} {worst['model']} b{worst['batch']}":
        worst["compute_slowdown"],
        "NVIDIA max": nvidia,
    }


def _pipeline_below_fsdp(rows):
    peak: Dict[str, float] = {}
    for r in _ran(rows):
        key = f"{r['gpu']} {r['strategy']} max"
        peak[key] = max(peak.get(key, 0.0), r["compute_slowdown"])
    holds = all(
        peak.get(f"{gpu} pipeline max", 0.0)
        <= peak.get(f"{gpu} fsdp max", 0.0) + 1e-6
        for gpu in {r["gpu"] for r in rows}
    )
    return holds, dict(sorted(peak.items()))


def _between_ideal_and_sequential(rows):
    short = sum(
        1 for r in rows if r["e2e_overlapped_ms"] >= r["e2e_ideal_ms"] - 1e-6
    )
    wins = sum(
        1 for r in rows if r["e2e_overlapped_ms"] <= r["e2e_sequential_ms"]
    )
    fsdp_within = all(
        r["e2e_overlapped_ms"] <= r["e2e_sequential_ms"] * 1.02
        for r in rows if r["strategy"] == "fsdp"
    )
    holds = (
        short == len(rows) and fsdp_within
        and wins >= max(1, int(0.9 * len(rows)))
    )
    return holds, {
        "short of ideal": short, "beat sequential": wins, "cells": len(rows),
    }


def _eq4_ideal(rows):
    worst = max(
        abs(r["e2e_ideal_ms"] - r["e2e_ideal_simulated_ms"])
        / r["e2e_ideal_simulated_ms"]
        for r in rows
    )
    return worst < 0.12, {"max deviation": worst}


def _worst_ideal_gap(rows):
    worst = max(rows, key=lambda r: r["overlapped_vs_ideal"])
    holds = worst["gpu"] == "MI250" and worst["model"] in THIRTEEN_B
    return holds, {
        f"{worst['gpu']} {worst['model']} b{worst['batch']}":
        worst["overlapped_vs_ideal"]
    }


def _overlap_raises_peak(rows):
    rises = [
        r["peak_increase_from_overlap"] for r in rows if r["strategy"] == "fsdp"
    ]
    raised = sum(1 for rise in rises if rise > 0)
    return raised == len(rises) and max(rises) < 0.6, {
        "raised": raised, "FSDP cells": len(rises), "max rise": max(rises),
    }


def _power_band(rows):
    # Average and peak power, overlapped and sequential.
    values = [v for r in rows for k, v in r.items() if k.endswith("_tdp")]
    low = min(r["avg_power_overlap_tdp"] for r in rows)
    high = max(r["peak_power_overlap_tdp"] for r in rows)
    holds = all(0.0 < v < 1.5 for v in values) and low < 0.8 and high > 1.0
    return holds, {
        "lowest": min(values), "lowest average": low, "highest peak": high,
    }


def _spikes_in_overlap_windows(data):
    windows = data["overlap_windows"]
    inside: List[float] = []
    outside: List[float] = []
    for sample in data["samples"]:
        t = sample["t_norm"]
        hit = any(w["start_norm"] <= t <= w["end_norm"] for w in windows)
        (inside if hit else outside).append(sample["power_tdp"])
    mean_in, mean_out = _mean(inside), _mean(outside)
    holds = len(data["samples"]) > 100 and bool(inside and outside) and mean_in > mean_out
    return holds, {
        "mean inside": mean_in, "mean outside": mean_out, "samples": len(data["samples"]),
    }


def _overlap_slows_gemm(rows):
    ok = sum(
        1 for r in rows
        if r["slowdown"] > 0
        and r["avg_power_overlap_tdp"] > r["avg_power_isolated_tdp"]
        and r["peak_power_overlap_tdp"] > r["peak_power_isolated_tdp"]
    )
    return ok == len(rows), {
        "holding": ok, "sizes": len(rows),
        "min slowdown": min(r["slowdown"] for r in rows),
    }


def _caps_slow_overlap(rows):
    by_cap = sorted(rows, key=lambda r: r["cap_w"])
    e2e = [r["e2e_overlapped_ms"] for r in by_cap]
    holds = (
        e2e == sorted(e2e, reverse=True)
        and by_cap[0]["overlap_slowdown_vs_uncapped"] > 0.7
        and all(
            r["overlap_slowdown_vs_uncapped"]
            >= r["sequential_slowdown_vs_uncapped"] - 1e-6
            for r in by_cap[:-1]
        )
    )
    return holds, {
        f"{r['cap_w']:.0f} W {mode}": r[f"{mode}_slowdown_vs_uncapped"]
        for r in by_cap[:-1] for mode in ("overlap", "sequential")
    }


def _ablation(field: str, base: str, knob: str):
    """Per (model, batch) pair, the knob cuts end-to-end time, raises
    the overlap ratio and cuts the compute slowdown by at most 0.5 pp."""

    def measure(rows):
        ran = _ran(rows)
        pairs = [
            (b, k) for b in ran for k in ran
            if b[field] == base and k[field] == knob
            and (b["model"], b["batch"]) == (k["model"], k["batch"])
        ]
        holds = bool(pairs) and all(
            k["e2e_ms"] < b["e2e_ms"]
            and k["overlap_ratio"] > b["overlap_ratio"]
            and k["compute_slowdown"] >= b["compute_slowdown"] - 0.005
            for b, k in pairs
        )
        return holds, {
            f"{b['model']} b{b['batch']} {key} rise": k[key] - b[key]
            for b, k in pairs for key in ("overlap_ratio", "compute_slowdown")
        }

    return measure


def _takeaway_1(rows):
    fsdp, pipe = (
        _cell(rows, gpu="A100", model="gpt3-2.7b", batch=8, strategy=s)
        for s in ("fsdp", "pipeline")
    )
    holds = (
        fsdp["compute_slowdown"] >= pipe["compute_slowdown"]
        and fsdp["overlap_ratio"] >= pipe["overlap_ratio"]
    )
    return holds, {
        f"{r['strategy']} {key}": r[key]
        for r in (fsdp, pipe) for key in ("compute_slowdown", "overlap_ratio")
    }


def _takeaway_2(rows):
    small, large = (
        _cell(rows, gpu="MI250", model=m, batch=8, strategy="fsdp")
        ["compute_slowdown"]
        for m in ("gpt3-xl", "gpt3-13b")
    )
    return large > small, {"gpt3-xl slowdown": small, "gpt3-13b slowdown": large}


def _takeaway_3(rows):
    r = _cell(rows, gpu="H100", model="gpt3-13b", batch=8, strategy="fsdp")
    keys = ("e2e_ideal_simulated_ms", "e2e_overlapped_ms", "e2e_sequential_ms")
    ideal, overlapped, sequential = (r[key] for key in keys)
    return ideal < overlapped < sequential, {key: r[key] for key in keys}


def _takeaway_5(rows):
    free = max(rows, key=lambda r: r["cap_w"])
    capped = _cell(rows, cap_w=200.0)
    holds = (
        capped["e2e_overlapped_ms"] > free["e2e_overlapped_ms"]
        and capped["compute_slowdown"] > free["compute_slowdown"]
    )
    return holds, {
        f"{r['cap_w']:.0f} W {key}": r[key]
        for r in (free, capped) for key in ("e2e_overlapped_ms", "compute_slowdown")
    }


def _takeaway_7(rows):
    holds, evidence = _ablation("precision", "fp32", "fp16")(rows)
    small32, small16 = (
        _cell(rows, model="gpt3-xl", batch=8, precision=p)["peak_power_tdp"]
        for p in ("fp32", "fp16")
    )
    return holds and small16 < small32, {
        **evidence, "gpt3-xl b8 peak fp32": small32, "gpt3-xl b8 peak fp16": small16,
    }


def _fig11_slowdown(datapath: str):
    return lambda rows: _cell(
        rows, model="gpt3-6.7b", batch=16, datapath=datapath
    )["compute_slowdown"]


CLAIMS = (
    Claim("abstract.mean_slowdown", "abstract",
          "mean compute slowdown under overlap", "fig4",
          lambda rows: _mean(r["compute_slowdown"] for r in _ran(rows)),
          paper=0.189),
    Claim("abstract.max_slowdown", "abstract",
          "max compute slowdown under overlap", "fig4",
          lambda rows: max(r["compute_slowdown"] for r in _ran(rows)),
          paper=0.400),
    Claim("abstract.mean_sequential_penalty", "abstract",
          "mean slowdown of sequential over overlapped execution", "fig5",
          lambda rows: _mean(r["sequential_vs_overlapped"] for r in rows),
          paper=0.102),
    Claim("abstract.max_sequential_penalty", "abstract",
          "max slowdown of sequential over overlapped execution", "fig5",
          lambda rows: max(r["sequential_vs_overlapped"] for r in rows),
          paper=0.266),
    Claim("fig1.batch_trend", "Fig. 1",
          "overlapped time never decreases with batch size: H100x8 FSDP for "
          "every model, A100x4 pipeline", "fig1", _batch_trend),
    Claim("fig1.model_trend", "Fig. 1a",
          "at the smallest batch, the share of computation overlapped with "
          "communication grows with model size (within 2 pp)", "fig1",
          _model_trend),
    Claim("fig4.a100_13b_infeasible", "Fig. 4",
          "the 40 GB A100 cannot host the 13B-class models under FSDP",
          "fig4", _a100_13b_infeasible),
    Claim("fig4.worst_slowdown", "Fig. 4",
          "the largest slowdown sits on the MI250 with a 13B-class model at "
          "the smallest batch, and AMD parts top NVIDIA's", "fig4",
          _worst_slowdown),
    Claim("fig4.pipeline_below_fsdp", "Fig. 4",
          "on every GPU the largest pipeline slowdown stays below the "
          "largest FSDP slowdown", "fig4", _pipeline_below_fsdp),
    Claim("fig5.between_ideal_and_sequential", "Fig. 5",
          "overlapped execution falls short of ideal (Eq. 4) on every cell "
          "and beats sequential on at least 90% of cells, coming within 2% "
          "of it on every FSDP cell", "fig5", _between_ideal_and_sequential),
    Claim("fig5.eq4_ideal", "Fig. 5",
          "Eq. 4's derived ideal lies within 12% of the simulated ideal",
          "fig5", _eq4_ideal),
    Claim("fig5.worst_ideal_gap_cell", "Fig. 5",
          "the worst gap to ideal sits on the MI250 with a 13B model",
          "fig5", _worst_ideal_gap),
    Claim("fig5.worst_ideal_gap", "Fig. 5",
          "worst slowdown of overlapped over ideal execution", "fig5",
          lambda rows: max(r["overlapped_vs_ideal"] for r in rows),
          paper=0.45),
    Claim("fig6.power_band", "Fig. 6",
          "power spans a wide band, from averages below 0.8x TDP to peaks "
          "above 1x TDP, and stays between 0 and 1.5x TDP", "fig6",
          _power_band),
    Claim("fig6.max_peak_increase", "Fig. 6",
          "largest rise in peak power from overlap (FSDP)", "fig6",
          lambda rows: max(r["peak_increase_from_overlap"]
                           for r in rows if r["strategy"] == "fsdp"),
          paper=0.25),
    Claim("fig6.min_avg_power", "Fig. 6",
          "lowest average power under overlap, as a fraction of TDP", "fig6",
          lambda rows: min(r["avg_power_overlap_tdp"] for r in rows),
          paper=0.38),
    Claim("fig6.max_peak_power", "Fig. 6",
          "highest peak power under overlap, as a fraction of TDP", "fig6",
          lambda rows: max(r["peak_power_overlap_tdp"] for r in rows),
          paper=1.40),
    Claim("fig7.spikes_in_overlap_windows", "Fig. 7",
          "MI250 power spikes coincide with overlap windows (1 ms samples)",
          "fig7", _spikes_in_overlap_windows),
    Claim("fig9.caps_slow_overlap", "Fig. 9",
          "each tighter power cap slows overlapped execution, the strictest "
          "by more than 70%, and slows it at least as much as sequential",
          "fig9", _caps_slow_overlap),
    Claim("fig9.strictest_cap_slowdown", "Fig. 9",
          "slowdown of overlapped execution under the strictest cap", "fig9",
          lambda rows: min(rows, key=lambda r: r["cap_w"])[
              "overlap_slowdown_vs_uncapped"],
          paper=1.07),
    Claim("fig11.tf32_raises_overlap", "Fig. 11",
          "tensor cores (TF32) speed up every workload and raise its overlap "
          "ratio without easing its slowdown by more than 0.5 pp", "fig11",
          _ablation("datapath", "fp32-vector", "tf32-tensor")),
    Claim("fig11.vector_slowdown", "Fig. 11",
          "GPT-3 6.7B b16 compute slowdown on the FP32 vector datapath",
          "fig11", _fig11_slowdown("fp32-vector"), paper=0.043),
    Claim("fig11.tensor_slowdown", "Fig. 11",
          "GPT-3 6.7B b16 compute slowdown on tensor cores (TF32)", "fig11",
          _fig11_slowdown("tf32-tensor"), paper=0.073),
    Claim("takeaway.1", "Takeaway 1",
          "strategies with complex collectives (FSDP) overlap more and slow "
          "down more than point-to-point ones (pipeline): A100 GPT-3 2.7B b8",
          "fig4", _takeaway_1),
    Claim("takeaway.2", "Takeaway 2",
          "a larger model compounds contention and slowdown: MI250 FSDP b8",
          "fig4", _takeaway_2),
    Claim("takeaway.3", "Takeaway 3",
          "overlap beats sequential execution, but kernel slowdowns keep it "
          "short of ideal: H100 FSDP GPT-3 13B b8", "fig5", _takeaway_3),
    Claim("takeaway.4", "Takeaway 4, Fig. 6",
          "overlapping raises peak power over sequential execution, on every "
          "FSDP cell, by under 60%", "fig6", _overlap_raises_peak),
    Claim("takeaway.5", "Takeaway 5",
          "a power cap slows overlapped execution and amplifies the compute "
          "slowdown: A100 at 200 W", "fig9", _takeaway_5),
    Claim("takeaway.6", "Takeaway 6, Fig. 8",
          "a concurrent all-reduce slows the GEMM and raises its average and "
          "peak power, at every matrix size", "fig8", _overlap_slows_gemm),
    Claim("takeaway.7", "Takeaway 7, Fig. 10",
          "FP16 speeds up every workload and raises its overlap ratio "
          "without easing its slowdown by more than 0.5 pp, yet cuts peak "
          "power for a small workload (GPT-3 XL b8)", "fig10", _takeaway_7),
)


def _scenario_rows(quick: bool) -> Dict[str, Any]:
    """Each claimed scenario's rows; a spec shared by several scenarios
    (the Figs. 4-6 grid) is resolved once."""
    cells_of: Dict[str, Any] = {}
    rows_of: Dict[str, Any] = {}
    for name in dict.fromkeys(claim.scenario for claim in CLAIMS):
        scenario = get_scenario(name)
        spec = scenario.spec(quick=quick)
        if spec is None:
            rows_of[name] = scenario.generate(quick=quick)
            continue
        key = spec.spec_hash()
        if key not in cells_of:
            cells_of[key] = run_spec(spec)
        rows_of[name] = scenario.generate(cells_of[key])
    return rows_of


def generate(quick: bool = True) -> List[Dict[str, object]]:
    """One row per claim over its scenario's rows."""
    rows_of = _scenario_rows(quick)
    out: List[Dict[str, object]] = []
    for claim in CLAIMS:
        value = claim.measure(rows_of[claim.scenario])
        shape = claim.paper is None
        holds, evidence = value if shape else (None, None)
        fields = ("id", "source", "statement", "scenario", "paper")
        out.append({
            **{field: getattr(claim, field) for field in fields},
            "measured": None if shape else value,
            "holds": holds,
            "evidence": evidence,
        })
    return out


def _table(headers: List[str], body: List[List[str]]) -> List[str]:
    return [
        "| " + " | ".join(headers) + " |",
        "|" + "---|" * len(headers),
        *("| " + " | ".join(cells) + " |" for cells in body),
    ]


def _pct(value: float) -> str:
    return f"{value * 100:.1f}%"


def render(rows: List[Dict[str, object]]) -> str:
    """The markdown report committed as ``EXPERIMENTS.md``."""
    magnitudes = [r for r in rows if r["paper"] is not None]
    shapes = [r for r in rows if r["paper"] is None]
    held = sum(1 for r in shapes if r["holds"])
    return "\n".join([
        "# EXPERIMENTS: the paper's claims against this reproduction",
        "",
        "Regenerate with `python -m repro scenario run claims > "
        "EXPERIMENTS.md` (quick grids; `--full` runs the paper's). Each "
        "claim reads the rows of the scenario it names. A shape claim gets "
        "a verdict and the numbers it rests on; a magnitude claim gets its "
        "gap to the paper in percentage points and no verdict, since the "
        "numbers come from a calibrated simulator.",
        "",
        f"{len(rows)} claims: {held} of {len(shapes)} shape claims hold; "
        f"{len(magnitudes)} magnitude claims report their gap.",
        "",
        "## Magnitudes",
        "",
        *_table(
            ["id", "source", "claim", "scenario", "paper", "measured",
             "gap (pp)"],
            [[r["id"], r["source"], r["statement"], r["scenario"],
              _pct(r["paper"]), _pct(r["measured"]),
              f"{(r['measured'] - r['paper']) * 100:+.1f}"]
             for r in magnitudes],
        ),
        "",
        "## Shapes",
        "",
        *_table(
            ["id", "source", "claim", "scenario", "evidence", "verdict"],
            [[r["id"], r["source"], r["statement"], r["scenario"],
              ", ".join(f"{k} {v:.4g}" for k, v in r["evidence"].items()),
              "holds" if r["holds"] else "**VIOLATED**"]
             for r in shapes],
        ),
    ])


register_scenario(
    "claims",
    description="the paper's claims against this reproduction "
    "(EXPERIMENTS.md)",
    generate=generate,
    render=render,
)
