"""Dynamic-fault workloads: churn traces, generators, chaos, scenarios.

The :mod:`repro.churn` package is the dynamic counterpart of the static
fault masks everything else measures — the paper's resilience story run as
a *stream*: faults arrive and heal (:mod:`~repro.churn.trace`,
:mod:`~repro.churn.generators`), the embedding service repairs its ring
incrementally (:meth:`repro.engine.service.EmbeddingService.apply_event`),
the gateway survives injected failures (:mod:`~repro.churn.chaos`), and the
scenario driver (:mod:`~repro.churn.scenario`) replays it all while holding
every streamed answer to the offline batch recomputation, bit for bit.

Symbols are loaded lazily (PEP 562): :mod:`repro.server.gateway` imports
:mod:`repro.churn.chaos`, and a serving process must not pay for the trace
generators or the scenario driver (which imports :mod:`repro.server` back)
just to reach it.
"""

from typing import Any

_LAZY = {
    "TRACE_SCHEMA": "trace",
    "ChurnEvent": "trace",
    "ChurnTrace": "trace",
    "read_trace": "trace",
    "write_trace": "trace",
    "loads_trace": "trace",
    "GENERATORS": "generators",
    "generate_trace": "generators",
    "CHAOS_KINDS": "chaos",
    "ChaosConfig": "chaos",
    "ChaosDecision": "chaos",
    "ChaosInjector": "chaos",
    "ScenarioReport": "scenario",
    "run_scenario": "scenario",
}

__all__ = list(_LAZY)


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
