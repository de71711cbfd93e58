"""Guard coverage and bounded reachability for the performance model.

The correctness of the paper's monitoring loop rests on two behavioural
properties that its guards must enforce:

* **coverage** — for every metric value ``u`` in the domain and every
  core count ``na``, *exactly one* transition out of ``Checks`` is
  enabled.  Zero means a gap (the sample strands in ``Checks``), two or
  more means an overlap (which transition fires depends on registration
  order — a silent priority nobody declared);
* **return + bounds** — from every reachable ``(u, na)`` state the
  ``Checks`` token comes back within a bounded number of firings, and
  the core-count token never leaves ``[n_min, n_total]``; together with
  ``free = n_total - allocated`` this is the core-conservation law
  ``allocated + free == n_total``.

Threshold guards are piecewise-constant between their breakpoints
(``th_min``/``th_max``), so probing every breakpoint, its two
one-sided neighbourhoods, every inter-breakpoint midpoint and a uniform
grid decides coverage exactly for the shipped model and catches any
gap/overlap wider than the grid pitch for user-supplied guards.

The model surface is duck-typed so test fixtures can hand in broken
nets: an object with ``net`` (a :class:`~repro.core.petrinet.PetriNet`
with ``Checks`` and ``Provision`` places), ``th_min``, ``th_max``,
``n_total``, ``n_min`` and a ``nalloc`` property; optional
``metric_domain`` and ``breakpoints`` refine the probed values.
"""

from __future__ import annotations

from collections import deque

from ..core.petrinet import PetriNet, Token
from .report import Finding

#: probe offset around each breakpoint (relative to its magnitude)
_EPS = 1e-9

#: uniform probes across the metric domain, on top of the critical values
DEFAULT_GRID = 101


def metric_samples(model, grid: int = DEFAULT_GRID) -> list[float]:
    """The probed metric values: breakpoints, their one-sided
    neighbourhoods, midpoints and a uniform grid over the domain."""
    span = model.th_max - model.th_min
    domain = getattr(model, "metric_domain", None)
    if domain is None:
        low = 0.0 if model.th_min >= 0 else model.th_min - span
        high = model.th_max + span
    else:
        low, high = domain
    breakpoints = sorted({float(b) for b in
                          (model.th_min, model.th_max,
                           *getattr(model, "breakpoints", ()))
                          if low <= b <= high})
    values = {low, high}
    for point in breakpoints:
        eps = max(_EPS, abs(point) * _EPS)
        values |= {point, point - eps, point + eps}
    edges = [low, *breakpoints, high]
    for left, right in zip(edges, edges[1:]):
        values.add((left + right) / 2.0)
    if grid > 1:
        step = (high - low) / (grid - 1)
        values |= {low + i * step for i in range(grid)}
    return sorted(v for v in values if low <= v <= high)


def entry_transitions(net: PetriNet) -> list[str]:
    """Transitions consuming from ``Checks`` (the classifiers)."""
    return [name for name in net.transition_names()
            if any(arc.place == "Checks"
                   for arc in net.transition(name).inputs)]


def _set_marking(net: PetriNet, marking: dict[str, list[Token]]) -> None:
    for name in net.place_names():
        place = net.place(name)
        place.clear()
        for token in marking.get(name, ()):
            place.put(token)


def _span(values: list[float]) -> str:
    low, high = min(values), max(values)
    if low == high:
        return f"u={low:g}"
    return f"u in [{low:g}, {high:g}] ({len(values)} probed values)"


def check_guard_coverage(model, grid: int = DEFAULT_GRID) -> list[Finding]:
    """Prove every metric value enables exactly one entry transition."""
    net: PetriNet = model.net
    saved = net.marking()
    entries = entry_transitions(net)
    findings: list[Finding] = []
    if not entries:
        findings.append(Finding(
            "guard-coverage",
            "no transition consumes from Checks: every sample strands"))
        _set_marking(net, saved)
        return findings
    gaps: dict[int, list[float]] = {}
    overlaps: dict[tuple[int, frozenset[str]], list[float]] = {}
    samples = metric_samples(model, grid)
    try:
        for nalloc in range(model.n_min, model.n_total + 1):
            for u in samples:
                _set_marking(net, {"Checks": [(u,)],
                                   "Provision": [(float(nalloc),)]})
                enabled = [t for t in entries if net.is_enabled(t)]
                if not enabled:
                    gaps.setdefault(nalloc, []).append(u)
                elif len(enabled) > 1:
                    key = (nalloc, frozenset(enabled))
                    overlaps.setdefault(key, []).append(u)
    finally:
        _set_marking(net, saved)
    for nalloc, values in sorted(gaps.items()):
        findings.append(Finding(
            "guard-coverage",
            f"gap: no entry transition is enabled for {_span(values)} "
            f"at nalloc={nalloc}; the metric token strands in Checks",
            location="Checks"))
    for (nalloc, names), values in sorted(
            overlaps.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
        findings.append(Finding(
            "guard-coverage",
            f"overlap: transitions {sorted(names)} are simultaneously "
            f"enabled for {_span(values)} at nalloc={nalloc}; firing "
            f"order silently decides the state", location="Checks"))
    return findings


def check_reachability(model, grid: int = DEFAULT_GRID,
                       max_steps: int | None = None) -> list[Finding]:
    """Bounded reachability over the (metric sample x core count) space.

    From every reachable state, firing must return the ``Checks`` token
    within ``max_steps`` firings, keep exactly one core-count token
    inside ``[n_min, n_total]`` (``allocated + free == n_total``), move
    it by at most one core per tick, and eventually reach every core
    count between ``n_min`` and ``n_total``.
    """
    net: PetriNet = model.net
    saved = net.marking()
    samples = metric_samples(model, grid)
    if max_steps is None:
        max_steps = 4 * len(net.transition_names()) + 4
    findings: list[Finding] = []
    stuck: dict[int, list[float]] = {}
    broken: list[str] = []
    start = int(model.nalloc)
    if not model.n_min <= start <= model.n_total:
        findings.append(Finding(
            "reachability",
            f"initial core count {start} outside "
            f"[{model.n_min}, {model.n_total}]", location="Provision"))
        start = min(max(start, model.n_min), model.n_total)
    seen = {start}
    frontier = deque([start])
    try:
        while frontier:
            nalloc = frontier.popleft()
            for u in samples:
                _set_marking(net, {"Checks": [(u,)],
                                   "Provision": [(float(nalloc),)]})
                fired: list[str] = []
                while not fired or len(net.place("Checks")) == 0:
                    if len(fired) >= max_steps:
                        stuck.setdefault(nalloc, []).append(u)
                        break
                    name = net.step()
                    if name is None:
                        # an unconsumed fresh token is a guard gap,
                        # already reported by check_guard_coverage
                        if fired:
                            stuck.setdefault(nalloc, []).append(u)
                        break
                    fired.append(name)
                else:
                    provision = net.place("Provision").tokens
                    checks = net.place("Checks").tokens
                    others = sum(
                        len(net.place(p)) for p in net.place_names()
                        if p not in ("Checks", "Provision"))
                    if (len(checks) != 1 or len(provision) != 1
                            or others):
                        broken.append(
                            f"after {fired} from (u={u:g}, "
                            f"nalloc={nalloc}) the marking holds "
                            f"{len(checks)} Checks, {len(provision)} "
                            f"Provision and {others} other tokens "
                            f"(expected exactly 1+1+0)")
                        continue
                    after = int(provision[0][0])
                    free = model.n_total - after
                    if not model.n_min <= after <= model.n_total:
                        broken.append(
                            f"firing {fired} from (u={u:g}, "
                            f"nalloc={nalloc}) left nalloc={after}, "
                            f"free={free}: core conservation "
                            f"allocated + free == n_total broken "
                            f"outside [{model.n_min}, {model.n_total}]")
                    elif abs(after - nalloc) > 1:
                        broken.append(
                            f"firing {fired} from (u={u:g}, "
                            f"nalloc={nalloc}) jumped to "
                            f"nalloc={after}: more than one core "
                            f"per tick")
                    elif after not in seen:
                        seen.add(after)
                        frontier.append(after)
    finally:
        _set_marking(net, saved)
    for nalloc, values in sorted(stuck.items()):
        findings.append(Finding(
            "reachability",
            f"the Checks token does not return within {max_steps} "
            f"firings for {_span(values)} at nalloc={nalloc}: the "
            f"model deadlocks mid-cycle", location="Checks"))
    for message in broken[:8]:
        findings.append(Finding("reachability", message,
                                location="Provision"))
    if len(broken) > 8:
        findings.append(Finding(
            "reachability",
            f"... {len(broken) - 8} further conservation violations "
            f"suppressed", location="Provision"))
    missing = sorted(set(range(model.n_min, model.n_total + 1)) - seen)
    if missing and not stuck and not broken:
        findings.append(Finding(
            "reachability",
            f"core counts {missing} are unreachable from "
            f"nalloc={start}: the model strands between "
            f"min_cores={model.n_min} and n_total={model.n_total}",
            location="Provision"))
    return findings
