"""Contract rules: fingerprint roles, atomic IO, float text, API surface.

Where :mod:`repro.analysis.determinism` guards *how numbers are produced*,
these rules guard the contracts *around* them: every config field must
declare whether it determines the numbers (the fingerprint boundary), writes
in the persistence layers must be atomic, float-to-text in persisted files
must be exact, the stable facade must not drift, and dispatch-path failures
must use the library's exception hierarchy.
"""

from __future__ import annotations

import ast
import json
import os
import re
from typing import Iterator, List, Optional

from ..errors import AnalysisError
from .findings import Finding
from .rules import ModuleSource, Rule, dotted_name, register

__all__ = [
    "FingerprintFieldRule",
    "AtomicIoRule",
    "FloatFormatRule",
    "ApiSurfaceRule",
    "BareExceptionRule",
    "API_SURFACE_BASELINE_NAME",
    "read_all_literal",
    "write_api_surface",
]


@register
class FingerprintFieldRule(Rule):
    """FP-FIELD — every ``ExperimentConfig`` field declares its role.

    The fingerprint include/exclude sets are *generated* from per-field
    ``number_determining`` metadata (see ``experiments/config.py``), so a
    field added without a declaration would silently fall outside the
    contract.  This rule fails any ``ExperimentConfig`` field whose default
    is not a ``config_field(number_determining=...)`` declaration with a
    literal boolean role.
    """

    id = "FP-FIELD"
    title = "ExperimentConfig fields must declare number_determining"
    rationale = (
        "The cache addresses cells by the config fingerprint; an undeclared "
        "field either fragments the cache (over-included) or aliases "
        "different numbers to one cell (under-included).  Both are silent."
    )

    #: The dataclass whose fields carry the fingerprint contract.
    config_class = "ExperimentConfig"
    #: The declarative field helper the rule requires.
    helper = "config_field"

    def applies_to(self, rel: str) -> bool:
        return rel == "repro/experiments/config.py"

    def _role_keyword(self, call: ast.Call) -> Optional[ast.expr]:
        for keyword in call.keywords:
            if keyword.arg == "number_determining":
                return keyword.value
        return None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.ClassDef) and node.name == self.config_class):
                continue
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                if not isinstance(statement.target, ast.Name):
                    continue
                name = statement.target.id
                value = statement.value
                if not (
                    isinstance(value, ast.Call)
                    and dotted_name(value.func, module.imports) == self.helper
                ):
                    yield module.finding(
                        self.id,
                        statement,
                        f"field {name!r} does not declare its fingerprint role "
                        f"— define it with {self.helper}(number_determining=...)",
                    )
                    continue
                role = self._role_keyword(value)
                if not (isinstance(role, ast.Constant) and isinstance(role.value, bool)):
                    yield module.finding(
                        self.id,
                        statement,
                        f"field {name!r} needs a literal "
                        "number_determining=True/False (the contract must be "
                        "readable without executing the module)",
                    )


#: Write-ish mode characters of :func:`open`.
_WRITE_MODES = set("wax+")


@register
class AtomicIoRule(Rule):
    """IO-ATOMIC — file outputs go through the atomic helpers.

    In ``repro/store/`` and ``repro/results/`` (persistence) and in
    ``repro/obs/`` and ``repro/bench/`` (traces, metric series, dashboards
    and reports), a plain ``open(path, "w")``
    (or ``Path.write_text`` / ``write_bytes``) can leave a torn file behind a
    crash.  All writes must route through
    :func:`repro.store.journal.atomic_write_text` or the
    :class:`~repro.store.journal.Journal` WAL — ``journal.py`` itself, the
    home of those primitives, is the single exemption.
    """

    id = "IO-ATOMIC"
    title = "store/results/obs/bench writes must use the atomic temp+replace helpers"
    rationale = (
        "A torn results or stats file is indistinguishable from data "
        "corruption; temp-file + os.replace + fsync is the only crash-safe "
        "write pattern, and it lives in exactly one module."
    )

    def applies_to(self, rel: str) -> bool:
        return (
            rel.startswith(
                ("repro/store/", "repro/results/", "repro/obs/", "repro/bench/")
            )
            and rel != "repro/store/journal.py"
        )

    def _open_mode(self, call: ast.Call) -> Optional[str]:
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
            if isinstance(call.args[1].value, str):
                return call.args[1].value
        for keyword in call.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                if isinstance(keyword.value.value, str):
                    return keyword.value.value
        return "r" if len(call.args) < 2 else None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, module.imports)
            if name == "open":
                mode = self._open_mode(node)
                if mode is not None and _WRITE_MODES & set(mode):
                    yield module.finding(
                        self.id,
                        node,
                        f"open(..., {mode!r}) in an output module — "
                        "write through atomic_write_text or the Journal WAL",
                    )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text",
                "write_bytes",
            ):
                yield module.finding(
                    self.id,
                    node,
                    f".{node.func.attr}() is not atomic — write through "
                    "atomic_write_text or the Journal WAL",
                )


#: Lossy float presentation in a format spec: any fixed precision, or the
#: e/f/g/% presentation types.
_FLOAT_SPEC = re.compile(r"\.\d+|[efg%]$")
#: %-style float conversions.
_PERCENT_FLOAT = re.compile(r"%[#0\- +]*\d*(?:\.\d+)?[eEfFgG]")
#: str.format template with a float presentation inside a placeholder.
_TEMPLATE_FLOAT = re.compile(r"\{[^{}]*:[^{}]*(?:\.\d+|[efg%])[^{}]*\}")


@register
class FloatFormatRule(Rule):
    """FLOAT-FMT — persisted float text must be exact, never rounded.

    In the persistence paths (``repro/store/`` and the results record /
    result-set modules), floats become text via the canonical exact
    formatters — ``repr`` through ``_format_cell``, or ``json.dumps`` —
    which round-trip every IEEE double.  Fixed-precision formatting
    (``f"{x:.6f}"``, ``format(x, ".3g")``, ``"%.2f" %``, ``round``) silently
    truncates: saved files stop byte-matching recomputed ones, and reloaded
    metrics diverge from the originals.  Human-facing table renderers live
    outside these modules and are free to round.
    """

    id = "FLOAT-FMT"
    title = "exact float text (repr/json) in persistence paths"
    rationale = (
        "repr() and json round-trip doubles exactly; any fixed precision "
        "destroys the byte-identity contract saved files are diffed under."
    )

    _scopes = (
        "repro/store/",
        "repro/results/records.py",
        "repro/results/resultset.py",
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(self._scopes)

    def _spec_text(self, spec: Optional[ast.expr]) -> str:
        if isinstance(spec, ast.JoinedStr):
            return "".join(
                str(part.value)
                for part in spec.values
                if isinstance(part, ast.Constant)
            )
        return ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FormattedValue):
                spec = self._spec_text(node.format_spec)
                if spec and _FLOAT_SPEC.search(spec):
                    yield module.finding(
                        self.id,
                        node,
                        f"f-string spec {spec!r} rounds the value — persist "
                        "exact text via repr()/_format_cell/json instead",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if isinstance(node.left, ast.Constant) and isinstance(
                    node.left.value, str
                ):
                    if _PERCENT_FLOAT.search(node.left.value):
                        yield module.finding(
                            self.id,
                            node,
                            "%-style float formatting rounds the value — "
                            "persist exact text via repr()/json instead",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func, module.imports)
                if name == "round":
                    yield module.finding(
                        self.id,
                        node,
                        "round() before persistence loses precision — store "
                        "the exact value, round only in human renderers",
                    )
                elif (
                    name == "format"
                    and len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                    and _FLOAT_SPEC.search(node.args[1].value)
                ):
                    yield module.finding(
                        self.id,
                        node,
                        f"format(..., {node.args[1].value!r}) rounds the "
                        "value — persist exact text via repr()/json instead",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "format"
                    and isinstance(node.func.value, ast.Constant)
                    and isinstance(node.func.value.value, str)
                    and _TEMPLATE_FLOAT.search(node.func.value.value)
                ):
                    yield module.finding(
                        self.id,
                        node,
                        "str.format with a float precision rounds the value "
                        "— persist exact text via repr()/json instead",
                    )


#: Name of the committed facade baseline, next to this module.
API_SURFACE_BASELINE_NAME = "api_surface.json"

#: The watched modules: package-relative path → dotted module name.
_SURFACE_MODULES = {
    "repro/__init__.py": "repro",
    "repro/api.py": "repro.api",
}


def read_all_literal(tree: ast.Module) -> Optional[List[str]]:
    """The module's ``__all__`` list, read statically (``None`` if absent
    or not a plain literal of string constants)."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in targets
        ):
            continue
        value = node.value
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(element, ast.Constant) and isinstance(element.value, str)
            for element in value.elts
        ):
            return [element.value for element in value.elts]
        return None
    return None


def write_api_surface(package_dir: str) -> str:
    """(Re)generate the facade baseline from the package's current sources.

    The deliberate way to change the stable API: run this (or edit the JSON
    by hand), and the diff of the committed baseline shows reviewers exactly
    what entered or left the facade.  Returns the path written.
    """
    from ..store.journal import atomic_write_text  # deferred: import cycle

    surface = {}
    for rel, dotted in sorted(_SURFACE_MODULES.items()):
        path = os.path.join(package_dir, *rel.split("/")[1:])
        with open(path, "r", encoding="utf-8") as handle:
            names = read_all_literal(ast.parse(handle.read()))
        if names is None:
            raise AnalysisError(f"{path!r} has no literal __all__ to baseline")
        surface[dotted] = names
    target = os.path.join(
        package_dir, "analysis", API_SURFACE_BASELINE_NAME
    )
    atomic_write_text(target, json.dumps(surface, indent=2, sort_keys=True) + "\n")
    return target


@register
class ApiSurfaceRule(Rule):
    """API-SURFACE — the stable facade matches its committed baseline.

    ``repro.__all__`` and ``repro.api.__all__`` are the compatibility
    surface; this rule compares both (read statically) against the committed
    ``analysis/api_surface.json``.  Additions and removals alike are
    findings: growing the facade is as deliberate an act as shrinking it.
    Update the baseline with :func:`write_api_surface` when the change is
    intended — the JSON diff then documents it in review.
    """

    id = "API-SURFACE"
    title = "repro.__all__ / repro.api.__all__ match the committed baseline"
    rationale = (
        "The facade is a promise; a name drifting in or out of __all__ "
        "changes what downstream code may import, silently."
    )

    def applies_to(self, rel: str) -> bool:
        return rel in _SURFACE_MODULES

    def _anchor(self, module: ModuleSource) -> ast.AST:
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                return node
        return module.tree.body[0] if module.tree.body else module.tree

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        dotted = _SURFACE_MODULES[module.rel]
        anchor = self._anchor(module)
        names = read_all_literal(module.tree)
        if names is None:
            yield module.finding(
                self.id,
                anchor,
                f"{dotted} has no literal __all__ — the facade must be "
                "statically readable",
            )
            return
        if not module.abspath:
            return  # in-memory source: no package directory to baseline against
        depth = module.rel.count("/")
        package_dir = os.path.normpath(
            os.path.join(os.path.dirname(module.abspath), *[".."] * max(depth - 1, 0))
        )
        baseline_path = os.path.join(
            package_dir, "analysis", API_SURFACE_BASELINE_NAME
        )
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                surface = json.load(handle)
        except FileNotFoundError:
            yield module.finding(
                self.id,
                anchor,
                f"no committed facade baseline at {baseline_path!r} — "
                "generate one with repro.analysis.write_api_surface",
            )
            return
        except (OSError, json.JSONDecodeError) as exc:
            raise AnalysisError(
                f"corrupt facade baseline {baseline_path!r}: {exc}"
            ) from exc
        expected = surface.get(dotted)
        if expected is None:
            yield module.finding(
                self.id,
                anchor,
                f"facade baseline has no entry for {dotted!r} — regenerate "
                "it with repro.analysis.write_api_surface",
            )
            return
        if names != list(expected):
            added = sorted(set(names) - set(expected))
            removed = sorted(set(expected) - set(names))
            drift = []
            if added:
                drift.append(f"added {added}")
            if removed:
                drift.append(f"removed {removed}")
            if not drift:
                drift.append("reordered")
            yield module.finding(
                self.id,
                anchor,
                f"{dotted}.__all__ drifted from the committed baseline "
                f"({'; '.join(drift)}) — update analysis/api_surface.json "
                "if the change is deliberate",
            )


#: Builtin exceptions that must not escape dispatch paths raw.
_BUILTIN_EXCEPTIONS = frozenset(
    {
        "BaseException",
        "Exception",
        "RuntimeError",
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "AttributeError",
        "AssertionError",
        "ArithmeticError",
        "ZeroDivisionError",
        "LookupError",
        "OSError",
        "IOError",
        "StopIteration",
    }
)


@register
class BareExceptionRule(Rule):
    """EXC-BARE — dispatch paths raise the library hierarchy, not builtins.

    In the heuristic and middleware dispatch modules, a raw ``assert`` or a
    builtin ``raise ValueError(...)`` is indistinguishable from a genuine
    bug to the campaign engine's error handling (the PR 2 regression class:
    a heuristic failure must surface as
    :class:`~repro.errors.SchedulingError`, not crash the run).  ``assert``
    additionally vanishes under ``python -O``.  ``NotImplementedError`` on
    abstract methods and bare ``raise`` re-raises stay legal.
    """

    id = "EXC-BARE"
    title = "dispatch paths use the repro.errors hierarchy"
    rationale = (
        "The campaign engine catches ReproError subclasses to convert "
        "heuristic/middleware failures into per-run outcomes; builtin "
        "exceptions bypass that and kill whole campaigns."
    )

    _scopes = (
        "repro/core/heuristics/",
        "repro/platform/middleware.py",
        "repro/platform/agent.py",
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(self._scopes)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield module.finding(
                    self.id,
                    node,
                    "bare assert in a dispatch path — raise a repro.errors "
                    "class (asserts vanish under -O and read as bugs upstream)",
                )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                name = None
                if isinstance(exc, ast.Call):
                    name = dotted_name(exc.func, module.imports)
                elif isinstance(exc, (ast.Name, ast.Attribute)):
                    name = dotted_name(exc, module.imports)
                if name in _BUILTIN_EXCEPTIONS or (
                    name is not None
                    and name.startswith("builtins.")
                    and name.split(".", 1)[1] in _BUILTIN_EXCEPTIONS
                ):
                    yield module.finding(
                        self.id,
                        node,
                        f"raise {name} in a dispatch path — use the "
                        "repro.errors hierarchy so the campaign engine can "
                        "classify the failure",
                    )
