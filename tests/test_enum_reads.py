"""Enum members are read through module constants, not class attributes.

On Python 3.11 ``enum.EnumType`` defines ``__getattr__``, so a read such as
``Subcycle.T4`` goes through CPython's slow attribute hook and costs several
times a module global's.  Each member is therefore bound once, beside its
class (``T1, T2, T3, T4 = SUBCYCLES``), and the modules whose code runs per
subcycle or per frame import that name.  These tests disassemble every
function and method those modules define, nested code objects included,
and fail on a global that names an ``Enum`` subclass directly followed by
an attribute read of one of its members.
"""

import dis
import enum
import importlib
import types
from pathlib import Path

import pytest

# the modules whose code runs per subcycle or per frame
HOT_MODULES = ("engine", "nodes", "protocol", "scenarios", "trace")
# the modules that define the package's enums
ENUM_MODULES = ("timebase", "protocol", "nodes")


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def member_reads(source: str, filename: str, namespace: dict) -> list[str]:
    """``"function: Class.MEMBER"`` for each read of an enum member as a class
    attribute in the code ``source`` defines, its globals in ``namespace``."""
    found = []
    for code in _code_objects(compile(source, filename, "exec")):
        ops = list(dis.get_instructions(code))
        for load, attr in zip(ops, ops[1:]):
            if load.opname != "LOAD_GLOBAL" or attr.opname != "LOAD_ATTR":
                continue
            owner = namespace.get(load.argval)
            if (isinstance(owner, type) and issubclass(owner, enum.Enum)
                    and attr.argval in owner.__members__):
                name = getattr(code, "co_qualname", code.co_name)
                found.append(f"{name}: {load.argval}.{attr.argval}")
    return found


def test_the_check_finds_member_reads():
    from optomac.protocol import Opcode
    from optomac.timebase import Subcycle

    source = (
        "def f(sub):\n"
        "    return sub is Subcycle.T4 or Subcycle.T1.value\n"
        "def g(queue):\n"
        "    return any(o is Opcode.RELAY for o in queue)\n"
        "def h():\n"
        "    return Opcode(1), Subcycle.__members__, T4\n")
    namespace = {"Subcycle": Subcycle, "Opcode": Opcode, "T4": Subcycle.T4}
    # the function's name is a qualified one from Python 3.11 on
    reads = member_reads(source, "<test>", namespace)
    assert sorted(read.rpartition(" ")[2] for read in reads) == [
        "Opcode.RELAY", "Subcycle.T1", "Subcycle.T4"]


@pytest.mark.parametrize("name", HOT_MODULES)
def test_hot_modules_read_no_member_through_its_class(name):
    module = importlib.import_module(f"optomac.{name}")
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert member_reads(source, module.__file__, vars(module)) == []


@pytest.mark.parametrize("name", ENUM_MODULES)
def test_each_member_is_bound_beside_its_class(name):
    module = importlib.import_module(f"optomac.{name}")
    enums = [obj for obj in vars(module).values()
             if isinstance(obj, type) and issubclass(obj, enum.Enum)
             and obj.__module__ == module.__name__]
    assert enums
    for cls in enums:
        for member in cls:
            assert getattr(module, member.name) is member, member
