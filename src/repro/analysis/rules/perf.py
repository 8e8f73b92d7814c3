"""PERF rules — hot-path shapes that silently serialise or slow the server.

PERF001 — no per-layer Python loops over whole-model state on the hot
path.  The arena layer (``repro.core.arena.LayerArena``) exists so
whole-state operations — apply an update, decay momentum, compute
M − v_k — are one fused vectorised op over a flat buffer.  A ``for`` loop
over ``parameters_of(...)`` / ``gradients_of(...)`` in ``core/``, ``ps/``
or ``exec/`` re-introduces the per-layer interpreter overhead the arena
was built to remove (and stretches the server's lock hold).  The dict-of-
float64 reference path in ``core/layerops.py`` is exempt: it exists
precisely to stay naive so the parity tests have something exact to
compare against.

PERF002 — no payload decode inside a lock-held region.  Decoding a frame
or message (``decode_frame`` / ``decode_message``) is O(payload) numpy
work; doing it under a server or channel lock stretches the hold time and
serialises every other request behind a pure-compute step.  The serve
loop decodes each frame before dispatching it to the server, whose shard
locks guard only the apply; this rule keeps ``ps/`` and ``comm/`` from
regressing that.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..linter import LintConfig, ModuleInfo, Rule

__all__ = ["DecodeUnderLockRule", "PerLayerLoopRule"]

#: whole-model collectors whose results must not be iterated layer-by-layer
_COLLECTORS = {"parameters_of", "gradients_of"}

#: Mapping iteration views — looping `collector(...).items()` is still a loop
_VIEWS = {"items", "keys", "values"}


def _collector_call(node: ast.AST) -> "str | None":
    """The collector name if ``node`` is ``parameters_of(...)`` /
    ``gradients_of(...)`` or an ``.items()``-style view of one."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _VIEWS and not node.args:
        return _collector_call(func.value)
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name if name in _COLLECTORS else None


class PerLayerLoopRule(Rule):
    id = "PERF001"
    summary = "per-layer Python loop over parameters_of()/gradients_of() on the hot path"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if not module.in_perf_loop_scope(config):
            return
        for node in ast.walk(module.tree):
            iters: "list[ast.AST]" = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                name = _collector_call(it)
                if name is not None:
                    yield self.finding(
                        module,
                        it,
                        f"per-layer loop over '{name}(...)' on the hot path; "
                        "use a LayerArena and one fused op over .flat "
                        "(repro.core.arena), or move the loop to the "
                        "layerops reference path",
                    )


#: payload decoders whose cost must stay outside lock-held regions
_DECODERS = {"decode_frame", "decode_message"}


def _lock_like(expr: ast.AST) -> bool:
    """True iff ``expr`` reads as a mutex by naming convention: ``_lock``,
    ``*_lock``, ``_mu``/``*_mu``, or a bare ``lock``/``mu`` — the spellings
    this repo's lock registry and LCK rules already key on."""
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Subscript):  # e.g. self._locks[shard]
        return _lock_like(expr.value)
    else:
        return False
    stripped = name.lstrip("_")
    return (
        stripped in ("lock", "mu", "locks")
        or stripped.endswith("_lock")
        or stripped.endswith("_locks")
        or stripped.endswith("_mu")
    )


def _decoder_call(node: ast.AST) -> "str | None":
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name if name in _DECODERS else None


class DecodeUnderLockRule(Rule):
    id = "PERF002"
    summary = "frame/message payload decode inside a lock-held region"

    def check(self, module: ModuleInfo, config: LintConfig) -> Iterator[Finding]:
        if not module.in_decode_lock_scope(config):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(_lock_like(item.context_expr) for item in node.items):
                continue
            for inner in node.body:
                for call in ast.walk(inner):
                    name = _decoder_call(call)
                    if name is not None:
                        yield self.finding(
                            module,
                            call,
                            f"payload decode '{name}(...)' inside a "
                            "lock-held region; decode before acquiring "
                            "the lock (the serve loop decodes outside "
                            "every lock — see docs/comm.md) and hand the "
                            "decoded message in",
                        )
