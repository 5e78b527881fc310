"""The benchmark in perfbench/ still runs against this package.

perfbench measures from outside: it imports public names, subclasses the
step and the objectives to count calls, and checks the evaluation count
of each traced solve against its m_k column.  This runs that path on one
8x16 instance, parses the CLI argv it times, and changes nothing in
perfbench/.
"""

import importlib
import sys
from pathlib import Path

import pytest

from descentls.cli import build_parser
from descentls.instances import InstanceSpec, generate_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("measure"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("variant", ["search", "plain"])
def test_traced_solve_matches_untraced(perfbench, variant):
    measure, tracing = perfbench
    a, b, _ = generate_instance(InstanceSpec(8, 16, 2, 0.01, 0))
    step = measure.setup(measure.Instance(0, a, b, 0.0, {}))
    untraced = measure.solve(variant, step)
    traced_step, counts = tracing.instrument(step, tracing.Tracer())
    traced = measure.solve(variant, traced_step)
    assert measure.same_run(traced, untraced)
    searches, failed, trials = measure.search_counts(traced)
    assert (searches > 0) == (variant == "search")
    # A failed search costs cap + 1 evaluations; the counts below cover that path too.
    assert (failed > 0) == (variant == "search")
    # phi_x and phi_y per iteration, every Armijo trial, and final_phi.
    assert counts["value"] == 2 * len(traced.records) + trials + 1
    # Those evaluations plus one gradient per iterate, x0 included.
    assert counts["A"] == 3 * len(traced.records) + trials + 2
    assert counts["AT"] == len(traced.records) + 1


def test_cli_commands_parse(perfbench, tmp_path):
    # The benchmark's CLI workload passes these argv to `descentls`; a flag the
    # parser no longer takes would make every timed CLI call exit 2.
    measure, _ = perfbench
    parser = build_parser()
    for command, argv in measure.cli_commands(8, 16, 2, 0, tmp_path).items():
        args, unknown = parser.parse_known_args(argv)
        assert (args.command, unknown) == (command, [])
