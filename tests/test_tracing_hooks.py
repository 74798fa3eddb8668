"""The benchmark tracer patches engine names by name; entering and leaving it
must find every one of them and restore everything it rewrote exactly."""

from __future__ import annotations

import importlib
from pathlib import Path

from agentloop import agents, backends, cli, orchestrator, toolkit
from agentloop.accounting import UsageLedger
from agentloop.backends import ScriptedBackend
from agentloop.memory import MemoryStore
from agentloop.orchestrator import Orchestrator

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"

# every module and class whose attributes the tracer replaces
PATCHED = (orchestrator, agents, toolkit, backends, cli, Orchestrator, MemoryStore, UsageLedger,
           ScriptedBackend)


def test_tracer_finds_and_restores_every_orchestrator_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    init = MemoryStore.__init__
    before = [dict(vars(owner)) for owner in PATCHED]
    defaults, kwdefaults = init.__defaults__, dict(init.__kwdefaults__)
    reason_step = Orchestrator.reason_step
    with tracing.instrument(tracing.Tracer()):
        assert Orchestrator.reason_step is not reason_step
        assert init.__defaults__ != defaults  # the default tokenizer is wrapped
    assert [dict(vars(owner)) for owner in PATCHED] == before
    assert (init.__defaults__, init.__kwdefaults__) == (defaults, kwdefaults)
