"""Hypnos link sleeping and the §8 savings accounting."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro import units
from repro.network import FleetTrafficModel
from repro.network.topology import Link, LinkEnd, LinkKind
from repro.sleep import (
    Hypnos,
    HypnosConfig,
    SleepPlan,
    WindowPlan,
    external_power_share,
    naive_saving_w,
    plan_savings,
    port_saving_range_w,
)
from repro.sweep.matrix import TRAFFIC_PRESETS, build_topology


@pytest.fixture
def traffic(small_fleet):
    return FleetTrafficModel(small_fleet, rng=np.random.default_rng(13),
                             n_demands=150)


@pytest.fixture
def hypnos(small_fleet, traffic):
    return Hypnos(small_fleet, traffic.matrix)


class TestPlanWindow:
    def test_sleeps_some_links(self, hypnos, small_fleet):
        asleep = hypnos.plan_window(1.0)
        assert 0 < len(asleep) < len(small_fleet.internal_links())

    def test_network_stays_connected(self, hypnos, small_fleet):
        asleep = hypnos.plan_window(1.0)
        graph = nx.Graph(small_fleet.internal_graph(exclude=asleep))
        assert nx.is_connected(graph)

    def test_redundancy_preserved(self, hypnos, small_fleet):
        asleep = hypnos.plan_window(1.0)
        graph = small_fleet.internal_graph(exclude=asleep)
        collapsed = nx.Graph()
        collapsed.add_nodes_from(graph.nodes)
        multi = set()
        for a, b in graph.edges():
            if collapsed.has_edge(a, b):
                multi.add(frozenset((a, b)))
            collapsed.add_edge(a, b)
        for a, b in nx.bridges(collapsed):
            assert frozenset((a, b)) in multi, \
                "sleeping created a single point of failure"

    def test_no_redundancy_sleeps_more(self, small_fleet, traffic):
        strict = Hypnos(small_fleet, traffic.matrix,
                        HypnosConfig(require_redundancy=True))
        loose = Hypnos(small_fleet, traffic.matrix,
                       HypnosConfig(require_redundancy=False))
        assert len(loose.plan_window(1.0)) >= len(strict.plan_window(1.0))

    def test_utilisation_cap_respected(self, small_fleet, traffic):
        hypnos = Hypnos(small_fleet, traffic.matrix,
                        HypnosConfig(max_utilisation=0.5))
        asleep = hypnos.plan_window(2.0)
        survivor = traffic.matrix.reroute_without(asleep)
        utils = survivor.utilisations()
        live = {lid: u for lid, u in utils.items() if lid not in asleep}
        assert max(live.values()) <= 0.5 + 1e-9

    def test_tight_cap_sleeps_less(self, small_fleet, traffic):
        loose = Hypnos(small_fleet, traffic.matrix,
                       HypnosConfig(max_utilisation=0.9))
        tight = Hypnos(small_fleet, traffic.matrix,
                       HypnosConfig(max_utilisation=0.002))
        assert len(tight.plan_window(1.0)) <= len(loose.plan_window(1.0))

    def test_protected_links_never_sleep(self, small_fleet, traffic):
        some = frozenset(l.link_id
                         for l in small_fleet.internal_links()[:30])
        hypnos = Hypnos(small_fleet, traffic.matrix,
                        HypnosConfig(protected_links=some))
        assert not (hypnos.plan_window(1.0) & some)

    def test_max_sleeping_cap(self, small_fleet, traffic):
        hypnos = Hypnos(small_fleet, traffic.matrix,
                        HypnosConfig(max_sleeping=3))
        assert len(hypnos.plan_window(1.0)) <= 3

    def test_negative_multiplier_rejected(self, hypnos):
        with pytest.raises(ValueError):
            hypnos.plan_window(-1.0)


class TestSchedule:
    def test_weekly_plan(self, hypnos):
        plan = hypnos.plan(0, units.days(2),
                           window_s=units.SECONDS_PER_HOUR)
        assert len(plan.windows) == 48
        assert plan.total_duration_s == pytest.approx(units.days(2))
        assert plan.ever_sleeping()

    def test_sleep_fraction_bounds(self, hypnos):
        plan = hypnos.plan(0, units.days(1))
        for link_id in plan.ever_sleeping():
            assert 0 < plan.sleep_fraction(link_id) <= 1.0

    def test_empty_plan_fraction(self):
        assert SleepPlan().sleep_fraction(1) == 0.0


def _oracle_connected(network, removed, require_redundancy):
    """The connectivity check as the per-level planner made it."""
    multigraph = network.internal_graph(exclude=removed)
    if not nx.is_connected(nx.Graph(multigraph)):
        return False
    if require_redundancy:
        collapsed = nx.Graph()
        collapsed.add_nodes_from(multigraph.nodes)
        for a, b in multigraph.edges():
            if collapsed.has_edge(a, b):
                collapsed[a][b]["multi"] = True
            else:
                collapsed.add_edge(a, b, multi=False)
        for a, b in nx.bridges(collapsed):
            if not collapsed[a][b]["multi"]:
                return False
    return True


def _oracle_plan_window(network, matrix, config, level):
    """One independent greedy run per demand level: the reference."""
    links = {l.link_id: l for l in network.internal_links()}
    current = matrix
    removed = set()
    utils = current.utilisations()
    candidates = sorted(
        (lid for lid in links if lid not in config.protected_links),
        key=lambda lid: utils.get(lid, 0.0))
    for link_id in candidates:
        if (config.max_sleeping is not None
                and len(removed) >= config.max_sleeping):
            break
        trial = removed | {link_id}
        if not _oracle_connected(network, trial, config.require_redundancy):
            continue
        try:
            rerouted = current.reroute_without(trial)
        except ValueError:
            continue
        worst = 0.0
        for lid, load in rerouted.base_link_loads().items():
            if lid in trial:
                continue
            capacity = units.gbps_to_bps(links[lid].speed_gbps)
            worst = max(worst, load * level / capacity)
        if worst > config.max_utilisation:
            continue
        removed = trial
        current = rerouted
    return removed


def _preset_case(topology, traffic_preset):
    network = build_topology(topology, rng=np.random.default_rng(0))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(1),
                                **TRAFFIC_PRESETS[traffic_preset])
    return network, traffic.matrix


class TestSharedPlan:
    """One shared greedy pass gives every level the per-level answer."""

    @staticmethod
    def _distinct_sets(network, matrix, config):
        plan = Hypnos(network, matrix, config).plan(0, units.days(7))
        expected = {}
        for window in plan.windows:
            level = window.demand_multiplier
            if level not in expected:
                expected[level] = _oracle_plan_window(network, matrix,
                                                      config, level)
            assert window.sleeping == expected[level], level
        return len({frozenset(s) for s in expected.values()})

    @pytest.mark.parametrize("topology,traffic_preset,cap", list(
        itertools.product(("tiny", "small"), ("quiet", "busy"),
                          (0.5, 0.1, 0.02))))
    def test_matches_per_level_greedy(self, topology, traffic_preset, cap):
        network, matrix = _preset_case(topology, traffic_preset)
        self._distinct_sets(network, matrix,
                            HypnosConfig(max_utilisation=cap))

    def test_levels_diverge(self):
        network, matrix = _preset_case("small", "quiet")
        assert self._distinct_sets(
            network, matrix, HypnosConfig(max_utilisation=0.02)) >= 3

    @pytest.mark.parametrize("config", [
        HypnosConfig(max_utilisation=0.02, require_redundancy=False),
        HypnosConfig(max_utilisation=0.1, require_redundancy=False),
        HypnosConfig(max_utilisation=0.02, max_sleeping=3),
        HypnosConfig(max_utilisation=0.5, max_sleeping=0),
    ], ids=["no-redundancy-0.02", "no-redundancy-0.1", "max-sleeping-3",
            "max-sleeping-0"])
    def test_config_variants(self, config):
        network, matrix = _preset_case("small", "busy")
        self._distinct_sets(network, matrix, config)

    def test_protected_links(self):
        network, matrix = _preset_case("small", "quiet")
        unconstrained = Hypnos(network, matrix,
                               HypnosConfig(max_utilisation=0.02))
        pinned = frozenset(sorted(unconstrained.plan_window(0.5))[:2])
        config = HypnosConfig(max_utilisation=0.02, protected_links=pinned)
        assert self._distinct_sets(network, matrix, config) >= 2

    def test_plan_window_is_one_level_of_the_pass(self):
        network, matrix = _preset_case("small", "busy")
        hypnos = Hypnos(network, matrix, HypnosConfig(max_utilisation=0.02))
        levels = hypnos.plan_levels([0.3, 1.0, 1.7, 1.0])
        assert sorted(levels) == [0.3, 1.0, 1.7]
        for level, asleep in levels.items():
            assert hypnos.plan_window(level) == asleep
        assert hypnos.plan_levels([]) == {}

    def test_connectivity_verdicts_match(self):
        network, matrix = _preset_case("small", "quiet")
        rng = np.random.default_rng(5)
        ids = sorted(l.link_id for l in network.internal_links())
        for require_redundancy in (True, False):
            hypnos = Hypnos(network, matrix, HypnosConfig(
                require_redundancy=require_redundancy))
            verdicts = set()
            for size in range(len(ids) + 1):
                for _ in range(4):
                    removed = set(rng.choice(ids, size=size,
                                             replace=False).tolist())
                    verdict = hypnos._stays_connected(removed)
                    assert verdict == _oracle_connected(
                        network, removed, require_redundancy), removed
                    verdicts.add(verdict)
            assert verdicts == {True, False}

    def test_parallel_links_listed_either_way_are_redundant(self):
        network, matrix = _preset_case("tiny", "quiet")
        a, b = sorted(network.routers)[:2]
        internal = [Link(9000, LinkKind.INTERNAL, 100.0, LinkEnd(a, 0),
                         LinkEnd(b, 0)),
                    Link(9001, LinkKind.INTERNAL, 100.0, LinkEnd(b, 1),
                         LinkEnd(a, 1))]
        network.links = internal
        network.routers = {a: network.routers[a], b: network.routers[b]}
        hypnos = Hypnos(network, matrix)
        for removed in (set(), {9000}, {9001}, {9000, 9001}):
            assert hypnos._stays_connected(removed) == _oracle_connected(
                network, removed, True)
        assert hypnos._stays_connected(set())


class TestSavings:
    def test_range_ordering(self, small_fleet):
        link = small_fleet.internal_links()[0]
        lower, upper = port_saving_range_w(small_fleet, link.link_id)
        assert 0 < lower < upper

    def test_naive_estimate_is_the_upper_bound(self, small_fleet):
        # Prior work assumed P_port + P_trx per side -- our upper bound.
        link = small_fleet.internal_links()[0]
        _, upper = port_saving_range_w(small_fleet, link.link_id)
        assert naive_saving_w(small_fleet, link.link_id) == upper

    def test_plan_savings_in_papers_regime(self, small_fleet, hypnos):
        plan = hypnos.plan(0, units.days(1))
        reference = small_fleet.total_wall_power_w()
        estimate = plan_savings(small_fleet, plan, reference)
        # §8: savings are fractions of a percent to ~2 %.
        assert 0.0 < estimate.lower_fraction < 0.05
        assert estimate.lower_fraction < estimate.upper_fraction < 0.10

    def test_reference_validation(self, small_fleet):
        with pytest.raises(ValueError):
            plan_savings(small_fleet, SleepPlan(), reference_power_w=0)


class TestExternalShare:
    def test_externals_hold_large_transceiver_share(self, fleet):
        share = external_power_share(fleet)
        # §8: externals are out of reach and carry about half (or more)
        # of the transceiver power.
        assert share["external_share"] > 0.4
        assert share["internal_trx_w"] > 0
        assert share["external_trx_w"] > 0
