"""Hypnos: utilisation-aware link sleeping (§8).

The algorithm evaluated by the paper turns off internal links that are not
needed to carry the current traffic, subject to two safety constraints:

* the internal topology must stay **connected** (no router isolated);
* after rerouting the displaced demands, **no remaining link may exceed a
  maximum utilisation** threshold.

Only *internal* links are candidates: an ISP cannot unilaterally shut a
customer or peering interface -- the paper's point that 51 % of Switch's
interfaces (and 52 % of transceiver power) are out of reach for sleeping.

The planner is greedy from the least-utilised candidate up, recomputing
routes incrementally after each commitment, and plans per time window so
the sleeping set follows the diurnal traffic curve.  The candidate order
does not depend on the demand level, so all of a schedule's levels walk
it together: levels that have committed the same links share one routing
state, and only the utilisation cap is checked per level
(:meth:`Hypnos.plan_levels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro import units
from repro.network.topology import ISPNetwork
from repro.network.traffic import DiurnalProfile, TrafficMatrix


@dataclass(frozen=True)
class HypnosConfig:
    """Planner parameters.

    ``max_utilisation`` is the post-rerouting cap on any internal link;
    ``protected_links`` are never turned off (e.g. the core-core bundle's
    last member is protected implicitly by connectivity, but operators may
    pin more).
    """

    max_utilisation: float = 0.5
    protected_links: frozenset = frozenset()
    #: Upper bound on how many links one window may sleep; None = no cap.
    max_sleeping: Optional[int] = None
    #: Keep the surviving topology 2-edge-connected, not merely connected,
    #: so a single link failure never partitions the network.  This is the
    #: operationally realistic setting and yields the paper's ~1/3
    #: sleepable share; ``False`` sleeps more aggressively.
    require_redundancy: bool = True


@dataclass
class WindowPlan:
    """The sleeping decision for one time window."""

    t_start_s: float
    t_end_s: float
    demand_multiplier: float
    sleeping: Set[int]

    @property
    def duration_s(self) -> float:
        """Window length."""
        return self.t_end_s - self.t_start_s


@dataclass
class SleepPlan:
    """A full multi-window sleeping schedule."""

    windows: List[WindowPlan] = field(default_factory=list)

    @property
    def total_duration_s(self) -> float:
        """Total planned time."""
        return sum(w.duration_s for w in self.windows)

    def sleep_fraction(self, link_id: int) -> float:
        """Fraction of planned time a link spends asleep."""
        total = self.total_duration_s
        if total == 0:
            return 0.0
        asleep = sum(w.duration_s for w in self.windows
                     if link_id in w.sleeping)
        return asleep / total

    def ever_sleeping(self) -> Set[int]:
        """Links asleep in at least one window."""
        out: Set[int] = set()
        for window in self.windows:
            out |= window.sleeping
        return out


class Hypnos:
    """The greedy link-sleeping planner."""

    def __init__(self, network: ISPNetwork, matrix: TrafficMatrix,
                 config: Optional[HypnosConfig] = None):
        self.network = network
        self.matrix = matrix
        self.config = config if config is not None else HypnosConfig()
        self._links = {l.link_id: l for l in network.internal_links()}

    # -- helpers ----------------------------------------------------------------

    def _stays_connected(self, removed: Set[int]) -> bool:
        # The router graph over surviving internal links, with each node
        # pair's link count, built in one pass over the link list.
        counts: Dict[Tuple[str, str], int] = {}
        for link in self.network.links:
            if link.is_internal and link.link_id not in removed:
                a, b = link.a.hostname, link.b.hostname
                pair = (a, b) if a <= b else (b, a)
                counts[pair] = counts.get(pair, 0) + 1
        graph = nx.Graph()
        graph.add_nodes_from(self.network.routers)
        graph.add_edges_from((a, b, {"links": n})
                             for (a, b), n in counts.items())
        if not nx.is_connected(graph):
            return False
        if self.config.require_redundancy:
            # 2-edge-connectivity on the multigraph: parallel links count
            # as redundancy, so bridges are edges whose node pair has
            # exactly one surviving link.
            for a, b in nx.bridges(graph):
                if graph[a][b]["links"] == 1:
                    return False
        return True

    def _max_utilisation(self, matrix: TrafficMatrix,
                         removed: Set[int],
                         demand_multiplier: float) -> float:
        loads = matrix.base_link_loads()
        worst = 0.0
        for link_id, load in loads.items():
            if link_id in removed:
                continue
            capacity = units.gbps_to_bps(self._links[link_id].speed_gbps)
            worst = max(worst, load * demand_multiplier / capacity)
        return worst

    def _reroute(self, matrix: TrafficMatrix,
                 removed: Set[int]) -> Optional[TrafficMatrix]:
        """``matrix`` routed without ``removed``; None if that is unsafe."""
        if not self._stays_connected(removed):
            return None
        try:
            return matrix.reroute_without(removed)
        except ValueError:
            return None  # some demand would be stranded

    # -- planning ---------------------------------------------------------------------

    def plan_levels(self, levels: Iterable[float]) -> Dict[float, Set[int]]:
        """Choose the sleeping set for each demand level in one greedy pass.

        Greedy: candidates in ascending-utilisation order; a candidate is
        committed iff the network stays connected, every displaced demand
        reroutes, and no surviving link exceeds the utilisation cap.  The
        candidate order does not depend on the level, so levels that have
        committed the same links so far share one ``(removed, matrix)``
        state: each candidate costs one connectivity check and one reroute
        per shared state, and only the cap check runs per level.  A group
        splits when its levels disagree on the cap, and split groups never
        meet again, so at most ``len(levels)`` states are alive at once.
        """
        members = sorted(set(levels))
        for level in members:
            if level < 0:
                raise ValueError(
                    f"demand multiplier must be >= 0, got {level}")
        utils = self.matrix.utilisations()
        candidates = sorted(
            (lid for lid in self._links
             if lid not in self.config.protected_links),
            key=lambda lid: utils.get(lid, 0.0))
        limit = self.config.max_sleeping
        groups: List[Tuple[Set[int], TrafficMatrix, List[float]]] = (
            [(set(), self.matrix, members)] if members else [])
        for link_id in candidates:
            next_groups = []
            for group in groups:
                removed, current, group_levels = group
                if limit is not None and len(removed) >= limit:
                    next_groups.append(group)
                    continue
                trial = removed | {link_id}
                rerouted = self._reroute(current, trial)
                if rerouted is None:
                    next_groups.append(group)
                    continue
                fits: List[float] = []
                misses: List[float] = []
                for level in group_levels:
                    worst = self._max_utilisation(rerouted, trial, level)
                    if worst > self.config.max_utilisation:
                        misses.append(level)
                    else:
                        fits.append(level)
                if fits:
                    next_groups.append((trial, rerouted, fits))
                if misses:
                    next_groups.append((removed, current, misses))
            groups = next_groups
        return {level: set(removed)
                for removed, _, group_levels in groups
                for level in group_levels}

    def plan_window(self, demand_multiplier: float = 1.0) -> Set[int]:
        """Choose the sleeping set for one window's demand level."""
        return self.plan_levels([demand_multiplier])[demand_multiplier]

    def plan(self, start_s: float, duration_s: float,
             window_s: float = units.SECONDS_PER_HOUR,
             profile: Optional[DiurnalProfile] = None) -> SleepPlan:
        """Plan a schedule over consecutive windows of a diurnal period.

        Each window's demand level is quantised to 0.1 so windows share
        decisions, and every distinct level is planned by one shared
        greedy pass (:meth:`plan_levels`): the cost is one connectivity
        check and reroute per candidate and live group of levels, not per
        level.
        """
        if profile is None:
            profile = DiurnalProfile()
        n_windows = int(round(duration_s / window_s))
        starts = [start_s + i * window_s for i in range(n_windows)]
        levels = [round(profile.multiplier(t0 + window_s / 2.0), 1)
                  for t0 in starts]
        sleeping = self.plan_levels(levels)
        return SleepPlan(windows=[
            WindowPlan(t_start_s=t0, t_end_s=t0 + window_s,
                       demand_multiplier=level,
                       sleeping=set(sleeping[level]))
            for t0, level in zip(starts, levels)])
