"""Correctness check applied to every backend training run.

An operation is one budgeted worker step.  A step fails if it was not
applied at the server, if its loss was non-finite, or if the run raised.
A run that fails a run-level check (errors, non-positive byte counts, a
final accuracy under the workload's floor) fails every step it budgeted:
the result is counted, never dropped or re-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["RunCheck", "check_run", "wire_bytes"]


@dataclass
class RunCheck:
    attempted: int
    failed: int
    problems: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def check_run(result, steps: int, min_accuracy: float) -> RunCheck:
    """Check one ``TrainResult`` against its step budget and quality floor."""
    problems: "list[str]" = []
    unapplied = max(0, steps - int(result.total_iterations))
    if unapplied:
        problems.append(f"applied {result.total_iterations} of {steps} budgeted steps")
    losses = [y for _x, y in result.loss_vs_step.to_rows()]
    nonfinite = sum(1 for y in losses if not math.isfinite(y))
    if nonfinite:
        problems.append(f"{nonfinite} non-finite losses in loss_vs_step")
    failed = unapplied + nonfinite
    run_level: "list[str]" = []
    if len(losses) < result.total_iterations:
        run_level.append(f"loss recorded for {len(losses)} of {result.total_iterations} steps")
    if result.errors:
        run_level.append(f"errors: {list(result.errors)}")
    up, down = wire_bytes(result)
    if up <= 0 or down <= 0:
        run_level.append(f"byte counts not positive (up={up}, down={down})")
    acc = float(result.final_accuracy)
    if not (math.isfinite(acc) and acc >= min_accuracy):
        run_level.append(f"val_accuracy {acc} below floor {min_accuracy}")
    if run_level:
        failed = steps
    return RunCheck(attempted=steps, failed=min(steps, failed), problems=problems + run_level)


def wire_bytes(result) -> "tuple[int, int]":
    """(up, down) bytes: real wire bytes where measured, else the codec's."""
    if result.wire_bytes_up is not None and result.wire_bytes_down is not None:
        return int(result.wire_bytes_up), int(result.wire_bytes_down)
    return int(result.upload_bytes), int(result.download_bytes)
