"""Which functions under ``src/repro`` the repository's own drivers run.

Run from the repository root::

    python benchmarks/reachability.py [--jobs 2] [--tests] [--list]

Every ``def`` under ``src/repro`` (methods and nested functions included)
must be called by at least one of the repository's drivers, each run in an
interpreter of its own with a ``sys.settrace`` hook that records the code
object of every frame it enters:

* quick ``python -m repro.experiments all`` and ``scale``;
* one untraced and one traced ``perfbench/measure.py`` round of each
  benchmark workload at seed 1;
* every ``examples/*.py`` (quick mode);
* every ``benchmarks/bench_*.py`` body (pytest, timing disabled) and
  ``benchmarks/fleet_footprint.py``.

A function no driver reaches must be listed in
``benchmarks/reachability_allowlist.txt`` with one reason tag:

``abstract``
    an interface stub (``@abstractmethod``, or a body that only raises
    ``NotImplementedError``, passes or holds a docstring);
``perfbench``
    a name the frozen benchmark needs (``perfbench/`` imports, wraps or
    passes it);
``reference``
    a test oracle: the textbook, generic or decoding form that tests check
    the program against;
``fault-injection``
    a fault a test (and the composed-fault fuzzer) injects;
``safety``
    a recovery, refusal or teardown path the drivers never trigger; the
    entry names the tier-1 test that reaches it, and the check runs that
    test to confirm it;
``trace``
    the opt-in tracing package, kept until per-request tracing replaces it.

The check fails on an unreached function missing from the allowlist, on an
allowlisted function a driver now reaches (the entry is stale: delete it),
and on an allowlisted name that no longer exists.  With ``--tests`` it also
runs the tier-1 suite under the same hook and fails on a non-``abstract``
entry that no test reaches either: code that nothing calls is deleted, not
listed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
ALLOWLIST = os.path.join(ROOT, "benchmarks", "reachability_allowlist.txt")

TAGS = ("abstract", "perfbench", "reference", "fault-injection", "safety",
        "trace")
WORKLOADS = ("paper-sobel-high", "fleet-256", "storm-live-durable")

#: A function's key: its path under ``src/repro`` and its first line (the
#: first decorator's, as ``co_firstlineno`` counts it).
Key = Tuple[str, int]


@dataclass(frozen=True)
class Driver:
    name: str
    #: ``module`` (``python -m``), ``script`` (a path) or ``pytest``.
    kind: str
    target: str
    args: Tuple[str, ...] = ()
    quick: bool = True


def drivers(scratch: str) -> List[Driver]:
    found = [
        Driver("experiments all", "module", "repro.experiments",
               ("all", "--json", os.path.join(scratch, "all.json"))),
        Driver("experiments scale", "module", "repro.experiments",
               ("scale",)),
    ]
    for workload in WORKLOADS:
        for traced in ("0", "1"):
            found.append(Driver(
                f"perfbench {workload} trace={traced}", "script",
                "perfbench/measure.py", (workload, "1", traced), quick=False))
    for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
        if name.endswith(".py"):
            found.append(Driver(f"examples/{name}", "script",
                                f"examples/{name}"))
    found.append(Driver("benchmarks/bench_*.py", "pytest", "benchmarks",
                        ("-q", "-p", "no:cacheprovider",
                         "--benchmark-disable")))
    found.append(Driver("benchmarks/fleet_footprint.py", "script",
                        "benchmarks/fleet_footprint.py", ("--seed", "1"),
                        quick=False))
    return found


TESTS = Driver("tier-1 tests", "pytest", "tests",
               ("-x", "-q", "-p", "no:cacheprovider"), quick=False)


# -- the child: run one driver under the hook ---------------------------------
class _PerTest:
    """pytest plugin: file what each test enters under its node id."""

    def __init__(self, groups: Dict[str, Dict[int, object]], current: list):
        self.groups = groups
        self.current = current

    def pytest_runtest_logstart(self, nodeid, location):
        self.current[0] = self.groups.setdefault(nodeid, {})

    def pytest_runtest_logfinish(self, nodeid, location):
        self.current[0] = self.groups[""]


def _child(out: str, kind: str, target: str, args: List[str]) -> int:
    groups: Dict[str, Dict[int, object]] = {"": {}}
    current = [groups[""]]

    def hook(frame, event, arg):
        code = frame.f_code
        current[0].setdefault(id(code), code)

    status = 0
    sys.argv = [target] + args
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        elif kind == "script":
            sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
            runpy.run_path(target, run_name="__main__")
        else:
            import pytest

            status = int(pytest.main(target.split() + args,
                                     plugins=[_PerTest(groups, current)]))
    except SystemExit as exit_:
        code = exit_.code
        status = code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    prefix = PACKAGE + os.sep
    with open(out, "w") as handle:
        json.dump({
            group: sorted({(code.co_filename[len(prefix):],
                            code.co_firstlineno)
                           for code in seen.values()
                           if code.co_filename.startswith(prefix)})
            for group, seen in groups.items()
        }, handle)
    return status


def run_driver(driver: Driver, scratch: str, index: int
               ) -> Tuple[Driver, Dict[str, Set[Key]], float]:
    """Run ``driver`` in a fresh interpreter: the functions it entered, by
    test node id for a pytest driver (``""`` holds the rest)."""
    out = os.path.join(scratch, f"driver-{index}.json")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if driver.quick:
        env["REPRO_QUICK"] = "1"
    start = perf_counter()
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", out,
         driver.kind, driver.target, *driver.args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    elapsed = perf_counter() - start
    if child.returncode != 0:
        sys.stdout.write(child.stdout[-4000:])
        raise SystemExit(f"reachability: driver {driver.name!r} exited "
                         f"{child.returncode}")
    with open(out) as handle:
        groups = json.load(handle)
    return driver, {group: {tuple(key) for key in keys}
                    for group, keys in groups.items()}, elapsed


# -- the functions under src/repro -------------------------------------------
@dataclass(frozen=True)
class Function:
    path: str
    qualname: str
    first: int
    last: int
    abstract: bool

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _is_stub(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        name = decorator.attr if isinstance(decorator, ast.Attribute) else (
            getattr(decorator, "id", ""))
        if name == "abstractmethod":
            return True
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(body[0].value.value,
                                                        str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    statement = body[0]
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant) and statement.value.value is ...:
        return True
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return getattr(exc, "id", "") == "NotImplementedError"
    return False


def functions() -> List[Function]:
    """Every ``def`` under ``src/repro``, named like ``co_qualname`` (a
    repeated name in one file gets ``#2``, ``#3``, ... in file order)."""
    found: List[Function] = []
    for directory, _, files in os.walk(PACKAGE):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            full = os.path.join(directory, filename)
            path = os.path.relpath(full, PACKAGE)
            with open(full) as handle:
                tree = ast.parse(handle.read(), full)
            counts: Dict[str, int] = {}

            def visit(node: ast.AST, scope: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        visit(child, f"{scope}{child.name}.")
                    elif isinstance(child, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                        qualname = f"{scope}{child.name}"
                        counts[qualname] = counts.get(qualname, 0) + 1
                        if counts[qualname] > 1:
                            qualname += f"#{counts[qualname]}"
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        found.append(Function(path, qualname, first,
                                              child.end_lineno,
                                              _is_stub(child)))
                        visit(child, f"{scope}{child.name}.<locals>.")
                    else:
                        visit(child, scope)

            visit(tree, "")
    return sorted(found, key=lambda f: (f.path, f.first))


# -- the allowlist ------------------------------------------------------------
@dataclass(frozen=True)
class Entry:
    name: str
    tag: str
    detail: str
    line: int


def read_allowlist(path: str = ALLOWLIST) -> Tuple[List[Entry], List[str]]:
    """The entries, and one error per malformed or repeated line."""
    entries: List[Entry] = []
    errors: List[str] = []
    seen: Set[str] = set()
    with open(path) as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            where = f"{os.path.basename(path)}:{number}"
            if len(parts) < 2 or parts[1] not in TAGS:
                errors.append(f"{where}: want 'path::qualname tag [detail]' "
                              f"with a tag from {', '.join(TAGS)}")
                continue
            name, tag = parts[0], parts[1]
            detail = parts[2] if len(parts) > 2 else ""
            if tag == "safety" and "::" not in detail:
                errors.append(f"{where}: a safety entry names the tier-1 "
                              "test that reaches it (tests/...py::test_...)")
            if name in seen:
                errors.append(f"{where}: {name} is listed twice")
            seen.add(name)
            entries.append(Entry(name, tag, detail, number))
    return entries, errors


def _names(keys: Iterable[Key], by_key: Dict[Key, Function]) -> Set[str]:
    return {by_key[key].name for key in keys if key in by_key}


def _safety_test(entry: Entry) -> str:
    return entry.detail.split()[0]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="drivers run at once (default 2)")
    parser.add_argument("--tests", action="store_true",
                        help="also profile the tier-1 suite and fail on a "
                             "non-abstract entry no test reaches")
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function with its lines")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    every = functions()
    by_key = {(f.path, f.first): f for f in every}
    by_name = {f.name: f for f in every}
    entries, errors = read_allowlist()
    safety_tests = sorted({_safety_test(e) for e in entries
                           if e.tag == "safety" and "::" in e.detail})
    checks = []
    if safety_tests:
        checks.append(Driver("safety tests", "pytest", " ".join(safety_tests),
                             ("-q", "-p", "no:cacheprovider"), quick=False))
    if args.tests:
        checks.append(TESTS)

    start = perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        runs = drivers(scratch) + checks
        with ThreadPoolExecutor(args.jobs) as pool:
            results = list(pool.map(
                lambda pair: run_driver(pair[1], scratch, pair[0]),
                enumerate(runs)))
    wall = perf_counter() - start

    reached: Set[str] = set()
    by_test: Dict[str, Set[str]] = {}
    tested: Set[str] = set()
    for driver, groups, elapsed in results:
        names = _names(set().union(*groups.values()), by_key)
        print(f"  {driver.name:<48} {len(names):5d} reached  "
              f"{elapsed:6.1f} s")
        if driver is TESTS:
            tested = names
        elif driver in checks:
            by_test = {test: _names(keys, by_key)
                       for test, keys in groups.items()}
        else:
            reached |= names
    unreached = [f for f in every if f.name not in reached]

    listed = {entry.name: entry for entry in entries}
    for entry in entries:
        function = by_name.get(entry.name)
        where = f"allowlist line {entry.line}: {entry.name}"
        if function is None:
            errors.append(f"{where} no longer exists: delete the entry")
            continue
        if entry.name in reached:
            errors.append(f"{where} is reached now: delete the entry")
        elif entry.tag == "abstract" and not function.abstract:
            errors.append(f"{where} is tagged abstract but has a body")
        elif entry.tag == "safety":
            test = _safety_test(entry)
            if not any(entry.name in names for nodeid, names
                       in by_test.items() if nodeid == test
                       or nodeid.startswith(test + "[")):
                errors.append(f"{where}: {test} does not reach it")
        if (args.tests and entry.tag != "abstract"
                and entry.name not in tested):
            errors.append(f"{where}: no test reaches it either, so delete "
                          "it (only an abstract stub may go uncalled)")
    for function in unreached:
        if function.name not in listed:
            errors.append(f"unreached and not allowlisted: {function.name} "
                          f"(lines {function.first}-{function.last})")

    if args.list:
        for function in unreached:
            note = ""
            if args.tests:
                note = ("  [tests]" if function.name in tested
                        else "  [nothing]")
            print(f"{function.name}  {function.lines}{note}")
    tags: Dict[str, int] = {}
    for entry in entries:
        tags[entry.tag] = tags.get(entry.tag, 0) + 1
    print(f"reachability: {len(every)} functions, {len(reached)} reached, "
          f"{len(unreached)} unreached "
          f"({sum(f.lines for f in unreached)} lines); allowlist "
          + ", ".join(f"{tag} {tags.get(tag, 0)}" for tag in TAGS)
          + f"; {wall:.0f} s")
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        sys.exit(_child(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]))
    sys.exit(main())
