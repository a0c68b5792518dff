"""Project index: symbols, import resolution, typing, call graph."""

import ast

from repro.analysis.callgraph import (
    ProjectIndex,
    build_project_index,
    clear_index_cache,
    import_aliases,
    modname_of,
)
from repro.analysis.rules.base import ModuleInfo


def make_modules(files: dict) -> dict:
    return {
        rel: ModuleInfo(path=rel, tree=ast.parse(src), source=src)
        for rel, src in files.items()
    }


def make_index(files: dict) -> ProjectIndex:
    return ProjectIndex(make_modules(files))


def call_targets(idx: ProjectIndex, caller: str) -> list:
    return [s.target for s in idx.call_of.values() if s.caller == caller]


# -- naming ------------------------------------------------------------
def test_modname_of_modules_and_packages():
    assert modname_of("repro/sim/simulator.py") == "repro.sim.simulator"
    assert modname_of("repro/sim/__init__.py") == "repro.sim"
    assert modname_of("repro/__init__.py") == "repro"


def test_relative_imports_resolve_against_the_package():
    files = {
        "repro/protocols/common/base.py": (
            "from ...crypto import Digest\n"
            "from ..common import helper\n"
            "from . import sibling\n"
        )
    }
    aliases = import_aliases(make_modules(files)["repro/protocols/common/base.py"])
    assert aliases["Digest"] == "repro.crypto.Digest"
    assert aliases["helper"] == "repro.protocols.common.helper"
    assert aliases["sibling"] == "repro.protocols.common.sibling"


def test_reexport_chain_follows_init():
    idx = make_index(
        {
            "repro/sim/__init__.py": "from .simulator import Simulator\n",
            "repro/sim/simulator.py": "class Simulator:\n    pass\n",
            "repro/user.py": (
                "from repro.sim import Simulator\n"
                "def mk() -> Simulator:\n"
                "    return Simulator()\n"
            ),
        }
    )
    assert (
        idx.resolve_name("repro/user.py", "Simulator")
        == "repro.sim.simulator.Simulator"
    )


# -- typing ------------------------------------------------------------
def test_attr_types_from_annotated_ctor_param():
    idx = make_index(
        {
            "repro/sim/simulator.py": (
                "class Simulator:\n"
                "    def schedule(self, delay):\n"
                "        pass\n"
            ),
            "repro/proc.py": (
                "from repro.sim.simulator import Simulator\n"
                "class Process:\n"
                "    def __init__(self, sim: Simulator):\n"
                "        self.sim = sim\n"
                "    def later(self):\n"
                "        self.sim.schedule(1.0)\n"
            ),
        }
    )
    assert (
        idx.attr_type("repro.proc.Process", "sim")
        == "repro.sim.simulator.Simulator"
    )


def test_local_types_from_constructor_assignment():
    idx = make_index(
        {
            "repro/things.py": (
                "class Thing:\n"
                "    def poke(self):\n"
                "        pass\n"
                "def use():\n"
                "    t = Thing()\n"
                "    t.poke()\n"
            ),
        }
    )
    fn = idx.functions["repro.things.use"]
    assert idx.local_types(fn)["t"] == "repro.things.Thing"
    assert "repro.things.Thing.poke" in call_targets(idx, "repro.things.use")


# -- call graph --------------------------------------------------------
def test_method_calls_resolve_through_typed_attributes():
    idx = make_index(
        {
            "repro/sim/simulator.py": (
                "class Simulator:\n"
                "    def schedule(self, delay):\n"
                "        pass\n"
            ),
            "repro/proc.py": (
                "from repro.sim.simulator import Simulator\n"
                "class Process:\n"
                "    def __init__(self, sim: Simulator):\n"
                "        self.sim = sim\n"
                "    def later(self):\n"
                "        self.sim.schedule(1.0)\n"
            ),
        }
    )
    assert call_targets(idx, "repro.proc.Process.later") == [
        "repro.sim.simulator.Simulator.schedule"
    ]


def test_external_calls_keep_dotted_names():
    idx = make_index(
        {
            "repro/h.py": (
                "import hmac\n"
                "def tag(key, data):\n"
                "    return hmac.new(key, data).digest()\n"
            ),
        }
    )
    assert "hmac.new" in call_targets(idx, "repro.h.tag")


def test_call_sites_inside_a_closure_belong_to_the_enclosing_function():
    idx = make_index(
        {
            "repro/m.py": (
                "def helper():\n"
                "    return 1\n"
                "def outer():\n"
                "    def inner():\n"
                "        return helper()\n"
                "    return inner\n"
            )
        }
    )
    assert call_targets(idx, "repro.m.outer") == ["repro.m.helper"]
    assert "repro.m.outer.inner" not in idx.functions


def test_mro_walks_project_bases():
    idx = make_index(
        {
            "repro/a.py": "class Base:\n    def hit(self):\n        pass\n",
            "repro/b.py": (
                "from repro.a import Base\n"
                "class Sub(Base):\n"
                "    pass\n"
            ),
        }
    )
    assert idx.mro("repro.b.Sub") == ["repro.b.Sub", "repro.a.Base"]
    assert idx.lookup_method("repro.b.Sub", "hit") == "repro.a.Base.hit"


# -- caching -----------------------------------------------------------
def test_index_memoized_by_content_digest():
    files = {"repro/x.py": "def f():\n    return 1\n"}
    clear_index_cache()
    first = build_project_index(make_modules(files))
    second = build_project_index(make_modules(files))
    assert first is second
    changed = dict(files)
    changed["repro/x.py"] = "def f():\n    return 2\n"
    third = build_project_index(make_modules(changed))
    assert third is not first
    clear_index_cache()
    assert build_project_index(make_modules(files)) is not first
