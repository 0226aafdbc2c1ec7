"""Only ``_apply`` writes Registry state.

The Devices and Functions Services change through one reducer,
``AcceleratorsRegistry._apply``, which live writes, WAL replay and
reconciliation all go through; ``_attach`` and ``_install_state`` rebuild
the services on the restore path.  The services' own mutators are the
tools those three use.  This test parses every module of the repository
and fails on a write to a Registry record or service, or a call to a
service mutator, anywhere else — a property read that clears a field
included.

Records are told apart by name flow within one function: a name bound
from a service call (``registry.devices.get(...)``, a loop over
``registry.functions.all()``), from a record constructor or from another
record, a parameter annotated with a record class, and ``self`` inside a
record class.  A service is ``self.devices``/``self.functions`` inside the
Registry, the same attributes of anything named like a registry, and a
local alias of either.
"""

import ast
import inspect
from pathlib import Path

from repro.core.registry import services

ROOT = Path(__file__).resolve().parents[2]

RECORDS = {"DeviceRecord", "InstanceRecord", "FunctionRecord"}
SERVICES = {"DevicesService": services.DevicesService,
            "FunctionsService": services.FunctionsService}
REGISTRY = "AcceleratorsRegistry"
#: The Registry methods allowed to write its state.
WRITERS = {"_apply", "_attach", "_install_state"}
#: Service methods that change what a service holds, and those that read.
MUTATORS = {"register", "remove", "add_instance", "remove_instance",
            "move_instance", "restore_instance"}
READERS = {"get", "find", "all", "on_node", "known", "instance",
           "instances_on_device"}
#: Methods that change a container in place.
CONTAINER_MUTATORS = {"add", "append", "clear", "discard", "extend",
                      "insert", "pop", "popitem", "remove", "setdefault",
                      "update"}


def test_every_service_method_is_classified():
    # A new service method must be listed as a mutator or a reader.
    for cls in SERVICES.values():
        public = {name for name, _ in inspect.getmembers(
            cls, inspect.isfunction) if not name.startswith("_")}
        assert public <= MUTATORS | READERS, cls.__name__


def _bindings(scope):
    """(target names, value) for every binding in ``scope``."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Tuple)
                        and isinstance(node.value, ast.Tuple)
                        and len(target.elts) == len(node.value.elts)):
                    for elt, value in zip(target.elts, node.value.elts):
                        yield _names(elt), value
                else:
                    yield _names(target), node.value
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            yield _names(node.target), node.value
        elif isinstance(node, (ast.For, ast.comprehension)):
            yield _names(node.target), node.iter


def _names(target):
    """Names a binding target binds (a subscript or attribute binds none)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return _names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_names, target.elts))
    return set()


class _Scope:
    """Name flow of one function: which names hold services or records."""

    def __init__(self, function, cls):
        self.cls = cls
        self.services = set()
        self.records = {"self"} if cls in RECORDS else set()
        for arg in function.args.args + function.args.kwonlyargs:
            if arg.annotation is not None and any(
                    record in ast.unparse(arg.annotation)
                    for record in RECORDS):
                self.records.add(arg.arg)
        bindings = list(_bindings(function))
        changed = True
        while changed:
            changed = False
            for names, value in bindings:
                if self.is_service(value):
                    group = self.services
                elif self.holds_records(value):
                    group = self.records
                else:
                    continue
                if not names <= group:
                    group |= names
                    changed = True

    def is_service(self, node):
        if isinstance(node, ast.Name):
            return node.id in self.services
        if not (isinstance(node, ast.Attribute)
                and node.attr in ("devices", "functions")):
            return False
        base = node.value
        if isinstance(base, ast.Name) and base.id == "self":
            return self.cls == REGISTRY
        name = base.id if isinstance(base, ast.Name) else getattr(
            base, "attr", "")
        return "registry" in name

    def holds_records(self, node):
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in self.records:
                return True
            if not isinstance(inner, ast.Call):
                continue
            func = inner.func
            if isinstance(func, ast.Name) and func.id in RECORDS:
                return True
            if isinstance(func, ast.Attribute) and (
                    func.attr == "_attach"
                    or func.attr in MUTATORS | READERS
                    and self.is_service(func.value)):
                return True
        return False

    def writes(self, function):
        """Line numbers of the Registry-state writes in ``function``."""
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute)
                    and not isinstance(node.ctx, ast.Load)
                    and (self.holds_records(node.value)
                         or self.is_service(node.value))):
                yield node.lineno
            elif (isinstance(node, ast.Subscript)
                  and not isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Attribute)
                  and self.holds_records(node.value.value)):
                yield node.lineno
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute):
                receiver = node.func.value
                if node.func.attr in MUTATORS and self.is_service(receiver):
                    yield node.lineno
                elif (node.func.attr in CONTAINER_MUTATORS
                      and isinstance(receiver, ast.Attribute)
                      and self.holds_records(receiver.value)):
                    yield node.lineno


def _functions(tree):
    """(function, enclosing class name) for every outermost function."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
            else:
                yield from visit(child, cls)
    yield from visit(tree, None)


def registry_writes(source, path="<source>"):
    """``path:line`` of every write to Registry state outside the reducer
    and the restore path."""
    found = set()
    for function, cls in _functions(ast.parse(source, path)):
        if cls in SERVICES or (cls == REGISTRY and function.name in WRITERS):
            continue
        found.update(_Scope(function, cls).writes(function))
    return [f"{path}:{line}" for line in sorted(found)]


def test_only_apply_writes_registry_state():
    writers = []
    for top in ("src", "perfbench", "benchmarks", "examples", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            writers.extend(registry_writes(path.read_text(),
                                           str(path.relative_to(ROOT))))
    assert writers == []


def test_the_guard_sees_each_kind_of_write():
    source = '''
class DeviceRecord:
    @property
    def effective_bitstream(self):
        self.pending_bitstream = None

class AcceleratorsRegistry:
    def _reconcile(self):
        for device in self.devices.all():
            device.instances.discard("x")
        self.functions.remove_instance("f", "x")

    def _apply(self, op):
        self.devices.get(op).alive = False

def heal(registry, record: "InstanceRecord"):
    registry.devices.find("dm").alive = True
    functions = registry.functions
    functions.move_instance("x", "dm")
    record.device = "dm"
    for fn in functions.all():
        fn.instances["x"] = None
'''
    assert [int(hit.split(":")[1]) for hit in registry_writes(source)] == [
        5, 10, 11, 17, 19, 20, 22]
