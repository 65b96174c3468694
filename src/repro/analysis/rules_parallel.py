"""parallel-write safety rule: a static race detector for chunk tasks.

The executor in :mod:`repro.perf.parallel` guarantees bit-exact parallel
results through *output ownership*: a chunk task
``task(chunk, unit_lo, unit_hi, elem_lo, elem_hi)`` may write only the
output slice owned by its units.  Nothing enforced that at the source
level — one stray ``np.add.at`` on a shared array, or a write indexed by
something other than the chunk bounds, reintroduces a data race the
conformance fuzzer can only catch probabilistically.  This rule finds
the task functions statically — any callable passed to a dispatcher:
the task argument of ``run_chunks(...)``, the function handed to an
executor via ``loop.run_in_executor(pool, fn, ...)`` (the serving
tier's kernel-thread hop), or ``pool.submit(fn, ...)`` — resolving
lambdas, local ``def``s, and ``self._method`` references — and flags,
inside their bodies:

* ``np.add.at`` — unordered scatter onto a shared output;
* subscript writes to *closure* arrays whose index expression mentions
  none of the task's parameters (the chunk bounds) — the write target
  is not derived from the ownership partition;
* plan-cache access (``get_plan_cache``, ``invalidate``,
  ``adopt_plans``, ``fresh_cache``) — cache mutation from worker
  context races with other workers and with the dispatching thread.

Writes like ``out[e0:e1] = ...`` or ``out[targets[u0:u1]] = ...`` pass:
their indices are functions of the chunk bounds, which the runtime
sanitizer (``REPRO_SANITIZE=1``) then verifies dynamically.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .engine import (
    LintContext,
    attribute_chain_root,
    dotted_name,
    mentions_any,
)
from .findings import SEVERITY_ERROR

RULE = "parallel-write"
DESCRIPTION = (
    "writes in dispatched parallel tasks (run_chunks, run_in_executor, "
    "submit) that bypass the output-ownership protocol (np.add.at, "
    "non-chunk-derived indices, plan-cache mutation)"
)

#: Plan-cache entry points that must never run from worker context.
_CACHE_CALLS = {
    "get_plan_cache",
    "invalidate",
    "adopt_plans",
    "fresh_cache",
}

#: Dispatcher call leaf -> positional index of the callable it runs on
#: another thread.  ``run_chunks(plan, task, ...)`` and
#: ``loop.run_in_executor(pool, fn, ...)`` carry it second;
#: ``pool.submit(fn, ...)`` first.  Anything dispatched through these
#: runs concurrently with the caller, so its writes fall under the
#: ownership protocol — this resolution replaced the old blanket
#: ``SCOPED_ALLOWANCES`` carve-out for ``/perf/jit/``.
_DISPATCH_CALLS = {
    "run_chunks": 1,
    "run_in_executor": 1,
    "submit": 0,
}


def _task_functions(ctx: LintContext) -> List[ast.AST]:
    """Callables dispatched onto worker threads, where resolvable."""
    tasks: List[ast.AST] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        index = _DISPATCH_CALLS.get(name.split(".")[-1])
        if index is None or len(node.args) < index + 1:
            continue
        task_arg = node.args[index]
        if isinstance(task_arg, ast.Lambda):
            tasks.append(task_arg)
        elif isinstance(task_arg, ast.Name):
            resolved = _resolve_local_def(ctx, node, task_arg.id)
            if resolved is not None:
                tasks.append(resolved)
        elif isinstance(task_arg, ast.Attribute):
            resolved = _resolve_method(ctx, node, task_arg)
            if resolved is not None:
                tasks.append(resolved)
    return tasks


def _resolve_method(
    ctx: LintContext, call: ast.Call, attr: ast.Attribute
) -> Optional[ast.FunctionDef]:
    """Resolve a ``self._method`` task to its def in the enclosing class."""
    if not (isinstance(attr.value, ast.Name) and attr.value.id == "self"):
        return None
    for scope in ctx.ancestors(call):
        if isinstance(scope, ast.ClassDef):
            for stmt in scope.body:
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name == attr.attr
                ):
                    return stmt
            return None
    return None


def _resolve_local_def(
    ctx: LintContext, call: ast.Call, name: str
) -> Optional[ast.FunctionDef]:
    """Find the ``def name`` nearest to the ``run_chunks`` call site."""
    scopes = [a for a in ctx.ancestors(call)] + [ctx.tree]
    for scope in scopes:
        body = getattr(scope, "body", None)
        if not body:
            continue
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return stmt
    return None


def _local_names(task: ast.AST) -> Set[str]:
    """Parameter and locally-bound names of the task function."""
    names: Set[str] = set()
    args = getattr(task, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names.add(arg.arg)
    for node in ast.walk(task):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For,)) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _param_names(task: ast.AST) -> Set[str]:
    args = getattr(task, "args", None)
    if args is None:
        return set()
    return {arg.arg for arg in list(args.posonlyargs) + list(args.args)}


def run(ctx: LintContext) -> None:
    """Analyze every statically-resolvable chunk task in the module."""
    for task in _task_functions(ctx):
        _check_task(ctx, task)


def _check_task(ctx: LintContext, task: ast.AST) -> None:
    locals_ = _local_names(task)
    params = _param_names(task)
    body = task.body if isinstance(task.body, list) else [task.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                _check_call(ctx, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    _check_store(ctx, target, locals_, params)


def _check_call(ctx: LintContext, node: ast.Call) -> None:
    name = dotted_name(node.func)
    if name is None:
        return
    if name in ("np.add.at", "numpy.add.at") or name.endswith(".add.at"):
        ctx.add(
            RULE,
            SEVERITY_ERROR,
            node,
            "np.add.at in a parallel chunk task scatters onto a shared "
            "output outside the ownership partition; pre-sort into owned "
            "segments (scatter engine) or accumulate per-chunk",
        )
        return
    leaf = name.split(".")[-1]
    if leaf in _CACHE_CALLS:
        ctx.add(
            RULE,
            SEVERITY_ERROR,
            node,
            f"plan-cache access ({leaf}) from a parallel worker context "
            f"races with other workers; resolve plans before dispatching "
            f"the region",
        )


def _check_store(
    ctx: LintContext, target: ast.AST, locals_: Set[str], params: Set[str]
) -> None:
    if not isinstance(target, ast.Subscript):
        return
    root = attribute_chain_root(target.value)
    if root is None or root in locals_:
        return  # writes to task-local temporaries are private by construction
    if params and mentions_any(target.slice, params):
        return  # index is derived from the chunk bounds: owned write
    ctx.add(
        RULE,
        SEVERITY_ERROR,
        target,
        f"write to shared array {root!r} is not indexed by the chunk "
        f"bounds; every parallel write must target the slice owned by "
        f"units unit_lo:unit_hi",
    )
