"""P-series: only picklable module-level callables ship to the pool.

The parallel snowflake scheduler fans work out on a
``ProcessPoolExecutor``.  Its payloads cross a process boundary by
pickling — and pickle serializes functions *by qualified name*: a lambda
or a function defined inside another function either fails to pickle
outright or, worse, drags closed-over live state (stores, solvers, open
handles) into the child.  The repo's discipline (``solve_edge_args``)
is module-level functions over explicit argument tuples of picklable
values; this checker pins it.

* **P401** — a ``lambda`` submitted to a process pool.
* **P402** — a locally-defined (nested) function submitted to a process
  pool; hoist it to module level and pass its state as arguments.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.checkers._ast_util import call_name, walk_scope
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Checker, ModuleSource, register

__all__ = ["PoolPayloadChecker"]

_POOL_CONSTRUCTORS = {
    "ProcessPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "futures.ProcessPoolExecutor",
}

_SUBMIT_METHODS = {"submit", "map"}


@register
class PoolPayloadChecker(Checker):
    codes = {
        "P401": "lambda submitted to a process pool is not picklable",
        "P402": "nested function submitted to a process pool is not "
                "picklable; hoist it to module level",
    }

    def check(self, module: ModuleSource) -> Iterator[Diagnostic]:
        for scope in ast.walk(module.tree):
            if isinstance(
                scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield from self._check_scope(module, scope)

    def _check_scope(
        self, module: ModuleSource, scope: ast.AST
    ) -> Iterator[Diagnostic]:
        pools: Set[str] = set()
        local_functions: Set[str] = set()
        nodes = list(walk_scope(scope))
        for node in nodes:
            if isinstance(node, ast.Assign) and _is_pool_call(node.value):
                pools.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
            elif isinstance(node, ast.withitem) and _is_pool_call(
                node.context_expr
            ):
                if isinstance(node.optional_vars, ast.Name):
                    pools.add(node.optional_vars.id)
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda
            ):
                local_functions.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not isinstance(scope, ast.Module):
                local_functions.add(node.name)
        if not pools:
            return
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _SUBMIT_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in pools
                and node.args
            ):
                continue
            payload = node.args[0]
            if isinstance(payload, ast.Lambda):
                yield module.diagnostic(
                    payload, "P401",
                    f"lambda passed to {func.value.id}.{func.attr}() "
                    "cannot cross the process boundary; use a "
                    "module-level function over an explicit payload",
                )
            elif (
                isinstance(payload, ast.Name)
                and payload.id in local_functions
            ):
                yield module.diagnostic(
                    payload, "P402",
                    f"locally-defined function {payload.id!r} passed to "
                    f"{func.value.id}.{func.attr}() cannot be pickled; "
                    "hoist it to module level and ship its state in the "
                    "payload",
                )


def _is_pool_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and call_name(node) in _POOL_CONSTRUCTORS
    )
