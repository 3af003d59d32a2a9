"""What a fresh interpreter loads when it imports regretlab.

The package reads each public name from its module on first use, so a
process pays only for the modules it touches, and the CLI does not load
OpenSSL (hashlib) until a formula is hashed. Each check runs in a new
interpreter, since this one has imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import regretlab

SRC = str(Path(regretlab.__file__).resolve().parents[1])


def fresh(code: str):
    """Run code in a new interpreter that imports regretlab from this tree
    and return the JSON value it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def loaded(modules) -> str:
    """Code that prints which of the named modules are loaded."""
    return f"import json, sys; print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"


def test_the_cli_does_not_load_openssl():
    assert fresh("import regretlab.cli\n" + loaded(["hashlib", "_hashlib"])) == []


def test_instance_names_load_no_learner():
    learners = [f"regretlab.{m}" for m in ("harness", "gftpl", "gkp", "ogd", "reductions")]
    assert fresh("import regretlab\nregretlab.gen_random_graph\n" + loaded(learners)) == []
    assert fresh("import regretlab.instances\n" + loaded(learners)) == []


def test_every_public_name_is_its_own_module_object():
    got = fresh(
        "import json, regretlab\n"
        "from importlib import import_module\n"
        "names = regretlab.__all__\n"
        "homes = {n: import_module(f'regretlab.{regretlab._HOME[n]}') for n in names}\n"
        "print(json.dumps({\n"
        "    'alien': [n for n in names if getattr(regretlab, n) is not getattr(homes[n], n)],\n"
        "    'undefined': [n for n in names if getattr(homes[n], n).__module__ != homes[n].__name__],\n"
        "    'undirred': sorted(set(names) - set(dir(regretlab))),\n"
        "    'submodule': regretlab.harness is import_module('regretlab.harness'),\n"
        "}))"
    )
    assert got == {"alien": [], "undefined": [], "undirred": [], "submodule": True}


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    got = fresh(
        "import json, regretlab\n"
        "try:\n"
        "    regretlab.nope\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n"
    )
    assert got == "module 'regretlab' has no attribute 'nope'"
