"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables/figures and writes the
measured rows/series to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md
can be checked against fresh runs. Set ``FLOCK_BENCH_FULL=1`` to include the
paper's largest dataset sizes (slower).

Benchmarks with machine-readable output additionally call
:func:`write_json_report`, which refreshes the committed
``BENCH_<name>.json`` artifact at the repo root (its only copy) so result
history travels with the code. Every such payload carries the
same metadata envelope — ``cpu_count`` (the host's usable cores, so a
committed number can be judged against the machine that produced it) and
``gate`` (``applied``/``skipped_reason`` plus the thresholds, so an
artifact records whether its acceptance gate actually ran or honestly
skipped) — asserted here so the schema cannot drift per benchmark.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

FULL = os.environ.get("FLOCK_BENCH_FULL", "0") == "1"


def cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def write_report(name: str, lines: list[str]) -> None:
    """Persist a reproduced table/figure as plain text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n")


def write_json_report(name: str, payload: dict) -> None:
    """Persist a benchmark's machine-readable results.

    Writes the committed repo-root artifact ``BENCH_<name>.json``.
    Enforces the shared metadata envelope: ``cpu_count`` and a ``gate``
    dict with ``applied`` and ``skipped_reason``.
    """
    assert isinstance(payload.get("cpu_count"), int), (
        f"benchmark {name!r}: payload must record 'cpu_count' "
        f"(use benchmarks.conftest.cpu_count())"
    )
    gate = payload.get("gate")
    assert isinstance(gate, dict), (
        f"benchmark {name!r}: payload must record a 'gate' dict "
        f"(use applied=False with a skipped_reason when nothing is gated)"
    )
    assert isinstance(gate.get("applied"), bool), (
        f"benchmark {name!r}: gate must record boolean 'applied'"
    )
    assert "skipped_reason" in gate and (
        gate["skipped_reason"] is None
        or isinstance(gate["skipped_reason"], str)
    ), f"benchmark {name!r}: gate must record 'skipped_reason' (str | None)"
    assert gate["applied"] == (gate["skipped_reason"] is None), (
        f"benchmark {name!r}: a skipped gate needs its reason and an "
        f"applied gate must not carry one"
    )
    assert any(
        key.startswith("threshold_") and isinstance(value, (int, float))
        for key, value in gate.items()
    ), (
        f"benchmark {name!r}: gate must record at least one numeric "
        f"'threshold_*' entry — an artifact without its acceptance bar "
        f"cannot be judged later"
    )
    data = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    (REPO_ROOT / f"BENCH_{name}.json").write_text(data)


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return FULL
