"""Exact reproduction of Table II: host-to-device transfers (Dev-W),
device-to-host transfers (Dev-R), and kernel executions (K-Exe) for the
three test expressions under the three execution strategies.

These integers are structural consequences of the strategies' designs —
they must match the paper exactly, not approximately.
"""

import pytest

from repro.analysis import vortex
from repro.clsim import CLEnvironment
from repro.dataflow import Network
from repro.expr import eliminate_common_subexpressions, lower, parse
from repro.strategies import get_strategy

# (expression, strategy) -> (Dev-W, Dev-R, K-Exe), verbatim from Table II.
TABLE_II = {
    ("velocity_magnitude", "roundtrip"): (11, 6, 6),
    ("velocity_magnitude", "staged"): (3, 1, 6),
    ("velocity_magnitude", "fusion"): (3, 1, 1),
    ("vorticity_magnitude", "roundtrip"): (32, 12, 12),
    ("vorticity_magnitude", "staged"): (7, 1, 18),
    ("vorticity_magnitude", "fusion"): (7, 1, 1),
    ("q_criterion", "roundtrip"): (123, 57, 57),
    ("q_criterion", "staged"): (7, 1, 67),
    ("q_criterion", "fusion"): (7, 1, 1),
}


def network_for(name):
    spec, _ = lower(parse(vortex.EXPRESSIONS[name]))
    return Network(eliminate_common_subexpressions(spec))


@pytest.mark.parametrize("expression,strategy", sorted(TABLE_II))
def test_event_counts_match_paper(expression, strategy, small_fields):
    net = network_for(expression)
    bindings = {k: small_fields[k] for k in net.live_sources()}
    report = get_strategy(strategy).execute(net, bindings,
                                            CLEnvironment("cpu"))
    assert report.counts.as_row() == TABLE_II[(expression, strategy)]


@pytest.mark.parametrize("expression,strategy", sorted(TABLE_II))
def test_event_counts_identical_in_dry_run(expression, strategy,
                                           small_fields):
    """Planning must see exactly the events live execution sees."""
    net = network_for(expression)
    from repro.strategies import plan
    from repro.strategies.bindings import ArraySpec
    shapes = {k: ArraySpec(small_fields[k].shape, small_fields[k].dtype)
              for k in net.live_sources()}
    result = plan(get_strategy(strategy), shapes, "cpu", network=net)
    assert result.counts.as_row() == TABLE_II[(expression, strategy)]


def test_roundtrip_writes_equal_argument_occurrences(small_fields):
    """u*u uploads u twice — the naive per-argument transfer behaviour the
    paper's write counts imply."""
    spec, _ = lower(parse("a = u * u"))
    net = Network(eliminate_common_subexpressions(spec))
    report = get_strategy("roundtrip").execute(
        net, {"u": small_fields["u"]}, CLEnvironment("cpu"))
    assert report.counts.dev_writes == 2


def test_staged_reads_only_final_result(small_fields):
    net = network_for("q_criterion")
    bindings = {k: small_fields[k] for k in net.live_sources()}
    report = get_strategy("staged").execute(net, bindings,
                                            CLEnvironment("cpu"))
    assert report.counts.dev_reads == 1


def test_fusion_single_kernel_for_all_paper_expressions(small_fields):
    for name in vortex.EXPRESSIONS:
        net = network_for(name)
        bindings = {k: small_fields[k] for k in net.live_sources()}
        report = get_strategy("fusion").execute(net, bindings,
                                                CLEnvironment("cpu"))
        assert report.counts.kernel_execs == 1
