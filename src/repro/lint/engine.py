"""The ``repro.lint`` rule engine: parse once, run every rule, report.

The reproduction's correctness story rests on a handful of repo-specific
invariants — seeded RNG streams, bounded *and audited* caches, lock-guarded
lazy shared state, the :class:`~repro.engine.executor.KernelExecutor` as the
sole owner of kernel tables, no blocking work on the server's event loop,
and no ``assert``-enforced contracts that ``python -O`` would strip.  Each
was violated at least once in PRs 2–5 and fixed by hand; this engine checks
them mechanically on every run of ``python -m repro lint``.

Design: plain :mod:`ast`, no third-party dependency.  A
:class:`FileContext` parses one file and precomputes the structures most
rules need (parent links, enclosing-``with`` chains, source lines for
``noqa`` scanning); each :class:`Rule` walks the tree and yields
:class:`Finding` records.  Findings pass through three filters before they
reach the report: ``--select``/``--ignore`` code selection, per-line
``# repro: noqa[REPxxx]`` suppressions, and the committed baseline of
grandfathered findings (:func:`load_baseline`).  The baseline is *empty* at
HEAD — every pre-existing violation was fixed, not grandfathered — but the
mechanism exists so future rules can land before their backlog is burned
down.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any

from ..exceptions import InvalidParameterError

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "LintResult",
    "load_baseline",
    "lint_paths",
    "lint_source",
    "parse_codes",
    "JSON_SCHEMA_VERSION",
]

#: Version of the ``--format json`` document layout.  Bump on any change to
#: the emitted keys so trend tooling can detect layout drift.
JSON_SCHEMA_VERSION = 1

#: ``# repro: noqa`` (all rules) or ``# repro: noqa[REP001,REP004]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")

_CODE_RE = re.compile(r"^REP\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: rule code, location, and a one-line message."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def key(self) -> str:
        """Stable identity used by baseline matching (line numbers drift on
        unrelated edits, so the baseline should be regenerated — not hand
        -edited — whenever grandfathered files change)."""
        return f"{self.path}:{self.line}:{self.rule}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """One parsed file plus the precomputed lookups rules share.

    ``path`` is the *virtual* posix path rules scope on (suffix matching
    against e.g. ``repro/server/``); fixture tests lint snippet sources
    under virtual paths like ``src/repro/server/example.py`` to exercise a
    rule's scoping without files living there.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = str(PurePosixPath(path))
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.path)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- tree navigation -------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors from the immediate parent up to the module node."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def in_path(self, *suffixes: str) -> bool:
        """True when this file's path contains any of the given fragments."""
        return any(fragment in self.path for fragment in suffixes)

    # -- suppressions ----------------------------------------------------------
    def noqa_codes(self, line: int) -> set[str] | None:
        """Codes suppressed on a physical line.

        Returns ``None`` when there is no ``repro: noqa`` comment, the empty
        set for a bare ``# repro: noqa`` (suppresses every rule), otherwise
        the explicit code set.
        """
        if not 1 <= line <= len(self.lines):
            return None
        match = _NOQA_RE.search(self.lines[line - 1])
        if match is None:
            return None
        codes = match.group("codes")
        if codes is None:
            return set()
        return {c.strip() for c in codes.split(",") if c.strip()}

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.noqa_codes(finding.line)
        if codes is None:
            return False
        return not codes or finding.rule in codes


class Rule:
    """Base class for one invariant checker.

    Subclasses set ``code`` / ``name`` / ``rationale`` and implement
    :meth:`check`.  Rules must be pure functions of the
    :class:`FileContext`: no filesystem access, no imports of the linted
    code (the auditor must be able to run on files that would not import).
    """

    code: str = ""
    name: str = ""
    #: one-line statement of the invariant, surfaced by ``--statistics``.
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintResult:
    """Everything one lint run produced, pre-filtered for reporting."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def active(self) -> list[Finding]:
        """Findings that gate the exit code (parse failures always gate)."""
        return self.parse_errors + self.findings

    def statistics(self) -> dict[str, int]:
        """Per-rule counts over the *active* findings, sorted by code."""
        counts: dict[str, int] = {}
        for f in self.active:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self, rules: Sequence[Rule]) -> dict[str, Any]:
        """The ``--format json`` document (layout: :data:`JSON_SCHEMA_VERSION`)."""
        return {
            "schema_version": JSON_SCHEMA_VERSION,
            "tool": "repro.lint",
            "files": self.files,
            "rules": {
                r.code: {"name": r.name, "rationale": r.rationale} for r in rules
            },
            "findings": [f.as_dict() for f in self.active],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
            "statistics": self.statistics(),
        }


def parse_codes(values: Iterable[str]) -> set[str]:
    """Parse ``--select``/``--ignore`` values: repeatable, comma-separated."""
    codes: set[str] = set()
    for value in values:
        for part in value.split(","):
            part = part.strip().upper()
            if not part:
                continue
            if not _CODE_RE.match(part):
                raise InvalidParameterError(
                    f"invalid rule code {part!r}: expected REPxxx (e.g. REP002)"
                )
            codes.add(part)
    return codes


def load_baseline(path: str | Path) -> set[str]:
    """Load the grandfathered finding keys from a baseline JSON file.

    Layout: ``{"schema_version": 1, "entries": ["path:line:RULE", ...]}``.
    An empty entry list (the committed state at HEAD) grandfathers nothing.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "entries" not in data:
        raise InvalidParameterError(
            f"baseline {path}: expected an object with an 'entries' list"
        )
    entries = data["entries"]
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise InvalidParameterError(f"baseline {path}: 'entries' must be strings")
    return set(entries)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            yield path
        else:
            raise InvalidParameterError(f"no such file or directory: {path}")


def _run_rules(
    ctx: FileContext,
    rules: Sequence[Rule],
    result: LintResult,
    baseline: set[str],
) -> None:
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding):
                result.suppressed.append(finding)
            elif finding.key in baseline:
                result.baselined.append(finding)
            else:
                result.findings.append(finding)


def _selected(rules: Sequence[Rule], select: set[str], ignore: set[str]) -> list[Rule]:
    chosen = [r for r in rules if not select or r.code in select]
    chosen = [r for r in chosen if r.code not in ignore]
    unknown = (select | ignore) - {r.code for r in rules}
    if unknown:
        known = ", ".join(sorted(r.code for r in rules))
        raise InvalidParameterError(
            f"unknown rule code(s) {', '.join(sorted(unknown))}; known: {known}"
        )
    return chosen


def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule] | None = None,
    baseline: set[str] | None = None,
) -> LintResult:
    """Lint one in-memory source under a virtual path (the fixture-test API)."""
    from .rules import all_rules

    result = LintResult(files=1)
    active_rules = list(rules) if rules is not None else all_rules()
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        result.parse_errors.append(
            Finding("REP000", str(PurePosixPath(path)), exc.lineno or 1,
                    (exc.offset or 0) + 1, f"file does not parse: {exc.msg}")
        )
        return result
    _run_rules(ctx, active_rules, result, baseline or set())
    return result


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    baseline: set[str] | None = None,
) -> LintResult:
    """Lint files/directories and return the aggregated :class:`LintResult`."""
    from .rules import all_rules

    active_rules = _selected(
        list(rules) if rules is not None else all_rules(),
        select or set(),
        ignore or set(),
    )
    result = LintResult()
    baseline_keys = baseline or set()
    for file_path in iter_python_files(paths):
        result.files += 1
        virtual = file_path.as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            ctx = FileContext(virtual, source)
        except SyntaxError as exc:
            result.parse_errors.append(
                Finding("REP000", virtual, exc.lineno or 1, (exc.offset or 0) + 1,
                        f"file does not parse: {exc.msg}")
            )
            continue
        _run_rules(ctx, active_rules, result, baseline_keys)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.parse_errors.sort(key=lambda f: (f.path, f.line))
    return result
