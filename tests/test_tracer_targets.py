"""Every layer the benchmark tracer wraps still exists in the library.

The tracer skips a target it cannot resolve, so a renamed function would
silently read 0 calls.  This test resolves every target against the
current package; a layer may only go missing by being listed as retired.
"""

import types
from pathlib import Path

import nsstab.cli  # noqa: F401  (imports every traced module)

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"

# layers whose function the library no longer has, with what replaced it
RETIRED = {
    "nonlinear.build_stepper",    # closed_loop_steps builds the stepper itself
    "stabilizer.choose_n",        # CutoffSearch.choose on the run's one search
    "stabilizer.closed_interval_map",  # a per-bundle oracle in tests/oracles.py
}


def load_tracer():
    """The tracer module, executed from its source without writing bytecode."""
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    unresolved = {prefix for prefix, mod_name, path, _ in tracer.TARGETS
                  if tracer.find_target(mod_name, path)[1] is None}
    assert unresolved == RETIRED


def test_every_artifact_writer_resolves():
    # the cli.io spans and the artifact bytes come from these wrappers alone
    tracer = load_tracer()
    unresolved = [f"{mod_name}.{attr}" for mod_name, attr, _ in tracer.IO_TARGETS
                  if tracer.find_target(mod_name, attr)[1] is None]
    assert unresolved == []
