"""Pin the optimised IR of the paper workloads and the division runtime.

The machine-independent pipeline must stay byte-stable: a pass rewrite
that changes any optimised module shows up here directly, not only
through simulated cycle counts.  Digests are SHA-256 of
``str(compile_minic(source))`` with default workload inputs and
unrolling on; the runtime is compiled as ``link_runtime`` does, with
unrolling off.

After a deliberate change to the optimised IR, regenerate the digests
with ``PYTHONPATH=src python tests/ir/test_ir_digests.py --update``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.backend.runtime import RUNTIME_SOURCE
from repro.lang.compile import compile_minic
from repro.workloads import WORKLOADS

_DIGESTS = os.path.join(os.path.dirname(__file__), "ir_digests.json")
_NAMES = [*WORKLOADS, "runtime"]


def _digest(name: str) -> str:
    if name == "runtime":
        module = compile_minic(RUNTIME_SOURCE, unroll=False)
    else:
        module = compile_minic(WORKLOADS[name]().source)
    return hashlib.sha256(str(module).encode()).hexdigest()


@pytest.mark.parametrize("name", _NAMES)
def test_optimised_ir_digest(name):
    with open(_DIGESTS) as handle:
        expected = json.load(handle)
    assert _digest(name) == expected[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: test_ir_digests.py --update")
    digests = {name: _digest(name) for name in _NAMES}
    with open(_DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=2)
        handle.write("\n")
