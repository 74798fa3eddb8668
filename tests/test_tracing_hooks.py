"""The benchmark tracer patches engine names by name; entering and leaving it
must find every one of them and restore the Orchestrator class exactly."""

from __future__ import annotations

import importlib
from pathlib import Path

from agentloop.orchestrator import Orchestrator

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_tracer_finds_and_restores_every_orchestrator_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    before = dict(vars(Orchestrator))
    with tracing.instrument(tracing.Tracer()):
        assert vars(Orchestrator)["reason_step"] is not before["reason_step"]
    assert dict(vars(Orchestrator)) == before
