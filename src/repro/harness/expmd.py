"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure."""

from __future__ import annotations

import pathlib
import time
from typing import List, Optional, Sequence

from repro.harness.experiments import ExperimentSuite
from repro.harness.paper import evaluate_experiment, render_comparison
from repro.harness.presets import experiment_preset

_HEADER = """# EXPERIMENTS — paper vs measured

Reproduction record for *Quality of Service Support for Fine-Grained
Sharing on GPUs* (ISCA 2017).  Every table and figure of the paper's
evaluation is regenerated by this repository; this file pins the paper's
reported result next to ours and records whether each qualitative *shape*
claim holds.  Regenerate with:

```bash
python -m repro.harness.expmd            # fast preset (default)
python -m repro.harness.expmd --preset paper
```

Absolute numbers are not expected to match: the substrate here is a
from-scratch pure-Python cycle-level simulator with synthetic Parboil
models, not the authors' GPGPU-Sim + compiled binaries (see DESIGN.md for
the substitution table).  What must match is the ordering and scaling
structure of the results: the shape claims of `repro.harness.paper`,
scored below (the generator exits 1 when one fails).  At the smoke
preset, a tier-1 test pins every figure's output digest and the claims
known to fail there (`tests/data/smoke_digests.json`).

## Known deviations at the fast preset

* **Spart overshoot is inflated** (Fig 9: ~1.2 vs paper's 1.116) because a
  4-SM machine makes the minimum partition a whole 25% of the GPU; this also
  depresses the Figure 14 average (Spart's overshoot retires extra
  instructions that flatter its inst/Watt at easy goals).  Both effects
  shrink with SM count — the paper preset uses the Table 1 machine.
* **Naive reaches more goals than the paper's 20.6%**: our warm-up-excluded
  scoring removes the ramp penalty that fixed quotas never recover from in
  a full-run average; the ordering (Naive far below every other scheme)
  still holds.
* **Hardest-goal tails are quantised**: with 12 pairs / 6 trios a single
  flipped case moves QoSreach by 0.08-0.17.
* **Static management's throughput gain is not reproduced** (Section 4.8c:
  the paper reports +13.3% non-QoS throughput on M+M pairs).  The fast
  preset's three M+M pairs at goal 65% read a small loss, so the sec48c
  claim only bounds the loss (under 25%).  Over all 20 M+M pairs
  (ROADMAP.md's table) static management always raises QoSreach, but the
  sign of the throughput gain depends on the metric, the pairs and the
  goal, and the hardest goal loses most.

"""


def generate(preset_name: str = "fast",
             experiments: Optional[Sequence[str]] = None,
             path: Optional[pathlib.Path] = None) -> str:
    """Run the suite and render EXPERIMENTS.md; returns the markdown."""
    suite = ExperimentSuite(experiment_preset(preset_name))
    chosen = list(experiments or ExperimentSuite.EXPERIMENTS)

    blocks: List[str] = [_HEADER]
    blocks.append(f"_Generated with preset **{preset_name}** "
                  f"({suite.preset.describe()})._\n")
    total_checks = 0
    holding = 0
    for experiment_id in chosen:
        # Elapsed-time footnote in the report; never feeds a result.
        started = time.time()  # repro: noqa=DET001
        result = suite.run(experiment_id)
        checks = evaluate_experiment(result)
        total_checks += len(checks)
        holding += sum(1 for check in checks if check.holds)
        blocks.append(render_comparison(result, checks))
        blocks.append(f"_regenerated in "
                      f"{time.time() - started:.1f}s_\n")  # repro: noqa=DET001
    blocks.insert(2, f"**Shape-claim scorecard: {holding}/{total_checks} "
                     "hold.**\n")
    spot_check = _spot_check_block()
    if spot_check:
        blocks.append(spot_check)
    text = "\n".join(blocks)
    if path is not None:
        path.write_text(text)
    return text


_SPOT_CHECK_PATH = (pathlib.Path(__file__).resolve().parents[3]
                    / "benchmarks" / "results"
                    / "paper_machine_spot_check.txt")


def _spot_check_block() -> Optional[str]:
    """Embed the committed paper-machine spot check, when present.

    The spot check runs the Table 1 machine for 200K-cycle windows —
    minutes per case, so it is regenerated by hand (its own file records
    the snippet) rather than on every expmd run; this keeps the section
    from silently vanishing on regeneration.
    """
    if not _SPOT_CHECK_PATH.exists():
        return None
    table = _SPOT_CHECK_PATH.read_text().rstrip("\n")
    return (
        "## Paper-machine spot check\n"
        "\n"
        "Beyond the fast preset, a spot check on the Table 1 machine "
        "(16 SMs, 4 MCs,\n10K-cycle epochs, 200K-cycle windows; four "
        "representative pairs at two\ngoals) confirms the headline "
        "orderings at paper scale — regenerate with the\nsnippet in "
        "`benchmarks/results/paper_machine_spot_check.txt`:\n"
        "\n"
        "```\n"
        f"{table}\n"
        "```\n"
        "\n"
        "Rollover reaches every goal (Spart 0.62), overshoots by 3.0% "
        "(Spart 16.9%;\npaper: 2.8% vs 11.6%), and delivers ~35% more "
        "non-QoS throughput — the\nFigure 6a/8a/9 story at the paper's "
        "own machine scale.\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md (paper vs measured)")
    parser.add_argument("--preset", default="fast",
                        choices=("smoke", "fast", "paper"))
    parser.add_argument("-o", "--output", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    text = generate(args.preset, path=pathlib.Path(args.output))
    failing = text.count("| **no** |")  # render_comparison's failing rows
    print(f"wrote {args.output}; {failing} shape claims fail")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
