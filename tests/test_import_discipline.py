"""Import discipline: the serving process loads only what it serves.

The package façades (``repro.core``, ``repro.graphs``, ...) resolve their
names lazily (PEP 562), so importing the gateway or the CLI does not import
Chapter 3, the analysis harness, the message-passing simulator or networkx.
These tests hold that line, check that every lazily exported name still
resolves, and run each import README documents.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"

FACADES = (
    "repro.churn",
    "repro.core",
    "repro.engine",
    "repro.gf",
    "repro.graphs",
    "repro.network",
    "repro.server",
)

#: modules a serving process never calls
NOT_SERVED = (
    "networkx",
    "repro.analysis",
    "repro.churn.generators",
    "repro.core.edge_faults",
    "repro.network.simulator",
)


#: modules only their own callers load: the cache audit behind ``/stats``
#: lists their caches once imported, and never imports them itself
NOT_AUDITED = (
    "repro.core.bounds",
    "repro.gf",
    "repro.gf.field",
    "repro.gf.modular",
    "repro.gf.poly",
    "repro.gf.primitive",
)


def _loaded_after(statements):
    code = "import json, sys\n" + statements + "print(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out))


def test_gateway_and_cli_import_only_what_they_serve():
    loaded = _loaded_after("import repro.server.gateway, repro.cli\n")
    assert "repro.server.gateway" in loaded
    assert not [m for m in NOT_SERVED if m in loaded or any(k.startswith(m + ".") for k in loaded)]


def test_stats_imports_nothing_to_audit_caches():
    loaded = _loaded_after(
        "from repro.server.gateway import BatchingGateway\n"
        "assert BatchingGateway().stats()['service']['process_caches']\n"
    )
    assert not [m for m in NOT_AUDITED if m in loaded]


@pytest.mark.parametrize("name", FACADES)
def test_facade_exports_resolve_and_are_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for attr in package.__all__:
        assert getattr(package, attr) is not None, attr
        assert attr in listed, attr


def _readme_imports():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^from repro[\w.]* import (?:\([^)]*\)|.*)$", text, flags=re.M)


def test_readme_documents_imports():
    assert _readme_imports()


@pytest.mark.parametrize("statement", _readme_imports())
def test_readme_import_works(statement):
    exec(statement, {})
