"""The benchmark's tracer finds every name it wraps.

perfbench/tracer.py wraps charvar's functions by module and attribute path and
reports a metric "absent" when a path no longer resolves, so a refactor that
moves a traced name would silently blank its per-layer metrics.  The tracer is
read as source and executed here, so nothing is written under perfbench/.
"""

import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
tracer = types.ModuleType("perfbench_tracer")
exec(compile(_PATH.read_text(), str(_PATH), "exec"), tracer.__dict__)

SITES = sorted(
    {site for sites in tracer.SPAN_SITES.values() for site in sites}
    | {(module_name, path) for _, module_name, path, _ in tracer.COUNTER_SITES}
)


@pytest.mark.parametrize("module_name,path", SITES)
def test_traced_name_resolves(module_name, path):
    assert tracer._resolve(module_name, path) is not None
