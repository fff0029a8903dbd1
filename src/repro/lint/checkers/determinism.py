"""D-series: the deterministic core must stay deterministic.

Synthesis output is contractually byte-identical across storage
backends and worker counts; the fingerprint cache and the
differential fuzz oracle both *assume* it.  Anything that lets hash
randomization, global PRNG state, the wall clock, the environment or
filesystem enumeration order leak into a result breaks that contract in
ways only the nightly fuzzer would catch.  Scope: ``relational/``,
``phase1/``, ``phase2/``, ``core/`` and ``fuzz/specgen.py`` — the
modules whose outputs are persisted, fingerprinted or replayed.

* **D101** — iterating a ``set`` (loop, non-set comprehension,
  ``list()``/``tuple()``) lets ``PYTHONHASHSEED`` pick the order; wrap
  the set in ``sorted(...)`` with a canonical key.
* **D102** — module-level ``random``/``np.random`` calls draw from
  process-global PRNG state; construct a seeded ``random.Random`` /
  ``np.random.default_rng`` instead.
* **D103** — wall-clock reads (``time.time``, ``datetime.now``, …).
  Monotonic duration probes (``perf_counter``/``monotonic``/
  ``process_time``) are exempt: they feed only the observability fields
  excluded from fingerprints.
* **D104** — environment reads (``os.environ``/``os.getenv``).
* **D105** — ``locale`` reads (collation/formatting vary per machine).
* **D106** — unsorted filesystem enumeration (``glob``, ``listdir``,
  ``iterdir``, ``scandir``); order is filesystem-dependent.  Exempt
  when consumed order-free (``sorted``/``any``/``all``/``len``/
  ``set``/…).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.lint.checkers._ast_util import (
    dotted_name,
    iter_function_scopes,
    parent_map,
    walk_scope,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import Checker, ModuleSource, register

__all__ = ["DeterminismChecker"]

#: Module-level ``random`` functions that read/advance global state.
_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}

#: ``np.random`` module-level functions (legacy global RandomState).
_NP_RANDOM_FNS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "normal", "permutation", "poisson",
    "rand", "randint", "randn", "random", "random_sample", "seed",
    "shuffle", "standard_normal", "uniform", "zipf",
}

_WALL_CLOCK_TIME_FNS = {
    "time", "time_ns", "ctime", "asctime", "localtime", "gmtime", "strftime",
}

_WALL_CLOCK_DOTTED = {
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
}

_LISTING_DOTTED = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_LISTING_METHODS = {"glob", "rglob", "iterdir", "scandir"}

#: Wrapping one of these around a listing consumes it order-free.
_ORDER_FREE_CONSUMERS = {
    "sorted", "any", "all", "len", "max", "min", "sum", "set", "frozenset",
}

_SCOPE_DIRS = {"relational", "phase1", "phase2", "core"}
_SCOPE_SUFFIXES = ("fuzz/specgen.py",)


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Whether ``node`` statically looks set-typed."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return _is_set_expr(func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _set_typed_names(scope: ast.AST) -> Set[str]:
    """Local names whose every assignment in ``scope`` is set-typed."""
    candidates: Dict[str, bool] = {}
    for node in walk_scope(scope):
        targets = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            # ``s |= {...}`` keeps the type; anything else disqualifies.
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            is_set = value is not None and _is_set_expr(value, set())
            prior = candidates.get(target.id)
            candidates[target.id] = is_set if prior is None else (
                prior and is_set
            )
        if isinstance(node, (ast.For, ast.comprehension)):
            # A loop target shadows any set assignment.
            target = node.target
            if isinstance(target, ast.Name):
                candidates[target.id] = False
    return {name for name, ok in candidates.items() if ok}


@register
class DeterminismChecker(Checker):
    codes = {
        "D101": "unordered set iteration can leak hash order into the "
                "result; iterate sorted(...) with a canonical key",
        "D102": "module-level random call draws from global PRNG state; "
                "use a seeded random.Random / np.random.default_rng",
        "D103": "wall-clock read in deterministic code",
        "D104": "environment read in deterministic code",
        "D105": "locale read in deterministic code",
        "D106": "unsorted filesystem enumeration; wrap in sorted(...)",
    }

    def in_scope(self, path: str) -> bool:
        parts = self.path_parts(path)
        if any(part in _SCOPE_DIRS for part in parts[:-1]):
            return True
        return any(path.endswith(suffix) for suffix in _SCOPE_SUFFIXES)

    def check(self, module: ModuleSource) -> Iterator[Diagnostic]:
        tree = module.tree
        parents = parent_map(tree)
        imports = _import_names(tree)

        yield from self._check_set_iteration(module, tree)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, parents, imports)
            elif isinstance(node, ast.Attribute):
                if (
                    node.attr == "environ"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ):
                    yield module.diagnostic(
                        node, "D104", "os.environ read in deterministic "
                        "code; plumb the value through configuration"
                    )

    # D101 -----------------------------------------------------------
    def _check_set_iteration(
        self, module: ModuleSource, tree: ast.Module
    ) -> Iterator[Diagnostic]:
        for scope in iter_function_scopes(tree):
            set_names = _set_typed_names(scope)
            for node in walk_scope(scope):
                if isinstance(node, ast.For) and _is_set_expr(
                    node.iter, set_names
                ):
                    yield module.diagnostic(
                        node.iter, "D101", self.codes["D101"]
                    )
                elif isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    # SetComp over a set is order-free (the result is
                    # itself unordered); every other comprehension bakes
                    # the iteration order into its value.
                    for gen in node.generators:
                        if _is_set_expr(gen.iter, set_names):
                            yield module.diagnostic(
                                gen.iter, "D101", self.codes["D101"]
                            )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Name)
                        and func.id in ("list", "tuple")
                        and len(node.args) == 1
                        and _is_set_expr(node.args[0], set_names)
                    ):
                        yield module.diagnostic(
                            node, "D101",
                            f"{func.id}() over a set freezes an "
                            "arbitrary hash order; use sorted(...) with "
                            "a canonical key",
                        )

    # D102/D103/D105/D106 and call-shaped D104 -----------------------
    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        parents: Dict[ast.AST, ast.AST],
        imports,
    ) -> Iterator[Diagnostic]:
        random_aliases, numpy_aliases, from_random, getenv_names = imports
        dotted = dotted_name(node.func)

        # The listing-method check must not depend on a resolvable
        # receiver: ``Path(base).iterdir()`` has a Call receiver and no
        # dotted name, but is exactly the enumeration D106 is about.
        is_listing = (dotted is not None and dotted in _LISTING_DOTTED) or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
        )
        if is_listing and not _order_free(node, parents):
            yield module.diagnostic(node, "D106", self.codes["D106"])

        if dotted is None:
            return
        head, _, rest = dotted.partition(".")

        if head in random_aliases and rest in _RANDOM_FNS:
            yield module.diagnostic(node, "D102", self.codes["D102"])
        elif dotted in from_random:
            yield module.diagnostic(node, "D102", self.codes["D102"])
        elif head in numpy_aliases:
            sub, _, fn = rest.partition(".")
            if sub == "random" and fn in _NP_RANDOM_FNS:
                yield module.diagnostic(node, "D102", self.codes["D102"])

        if (head == "time" and rest in _WALL_CLOCK_TIME_FNS) or (
            dotted in _WALL_CLOCK_DOTTED
        ):
            yield module.diagnostic(
                node, "D103",
                f"wall-clock read {dotted}() in deterministic code; "
                "monotonic duration probes (perf_counter) are fine, "
                "dates/epochs are not",
            )

        if dotted == "os.getenv" or dotted in getenv_names:
            yield module.diagnostic(
                node, "D104", "os.getenv read in deterministic code; "
                "plumb the value through configuration"
            )

        if head == "locale" and rest:
            yield module.diagnostic(node, "D105", self.codes["D105"])


def _order_free(node: ast.Call, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether a listing call's result is consumed order-free."""
    parent = parents.get(node)
    if isinstance(parent, ast.Call):
        func = parent.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_FREE_CONSUMERS
            and node in parent.args
        ):
            return True
    if isinstance(parent, ast.Compare):
        # ``x in os.listdir(d)`` — membership is order-free.
        return node in parent.comparators
    return False


def _import_names(tree: ast.Module):
    """``(random aliases, numpy aliases, from-random names, getenv
    names)`` — the identifier sets the call checks resolve against."""
    random_aliases: Set[str] = set()
    numpy_aliases: Set[str] = set()
    from_random: Set[str] = set()
    getenv_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or alias.name)
                elif alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                from_random.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name in _RANDOM_FNS
                )
            elif node.module == "os":
                getenv_names.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "getenv"
                )
    return random_aliases, numpy_aliases, from_random, getenv_names
