"""Zero-dependency metrics registry with Prometheus-style text exposition.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (events seen, cache
  hits, rows synced);
* :class:`Gauge` — point-in-time values that move both ways (current block,
  open positions);
* :class:`Histogram` — bucketed observations (per-stride wall-clock,
  per-block gas) with cumulative ``le`` buckets plus ``_sum``/``_count``
  series.

Instruments are created through a :class:`MetricsRegistry` and may carry
label dimensions::

    registry = MetricsRegistry()
    events = registry.counter("repro_events_total", "Events seen", ("kind",))
    events.labels(kind="BlockMined").inc()
    registry.exposition()   # Prometheus text format 0.0.4

The registry is deliberately free of locks and background machinery: the
simulator is single-threaded per run, and the concurrent readers (the
``/metrics`` HTTP endpoints of ``repro watch --metrics-port`` and ``repro
serve``) only render floats — a torn read across two metrics is harmless
for monitoring and impossible within one (CPython dict/float operations
are atomic enough under the GIL).  Writes are another matter: an ``inc``
is a read-modify-write, so a registry written from several threads needs
every writer to hold one lock of the caller's.  ``repro serve``'s dispatch
threads write its registry only under the supervisor's lock.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = [
    "Collector",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets, in seconds — tuned for the sub-millisecond to
#: tens-of-seconds range the engine's phases span.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Child:
    """One labelled series of an instrument family."""

    __slots__ = ("label_values",)

    def __init__(self, label_values: tuple[str, ...]) -> None:
        self.label_values = label_values


class _CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, label_values: tuple[str, ...]) -> None:
        super().__init__(label_values)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class _GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, label_values: tuple[str, ...]) -> None:
        super().__init__(label_values)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild(_Child):
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, label_values: tuple[str, ...], buckets: tuple[float, ...]) -> None:
        super().__init__(label_values)
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        # ``counts`` holds per-bucket tallies; rendering cumulates them into
        # the Prometheus ``le`` form, so only the first bound that fits
        # counts the observation.
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break


class _Family:
    """An instrument family: a name, a help string, and labelled children."""

    kind = "untyped"
    child_type: type = _Child

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], _Child] = {}
        if not labelnames:
            # A label-less family is its own single series.
            self._default = self._make_child(())
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self, label_values: tuple[str, ...]) -> _Child:
        return self.child_type(label_values)

    def labels(self, **labels: str) -> _Child:
        """The child series for this label combination (created on first use)."""
        try:
            values = tuple(str(labels[name]) for name in self.labelnames)
        except KeyError as exc:
            raise ValueError(f"{self.name} requires labels {self.labelnames}") from exc
        if len(labels) != len(self.labelnames):
            raise ValueError(f"{self.name} requires exactly labels {self.labelnames}")
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make_child(values)
        return child

    def _sorted_children(self) -> list[_Child]:
        return [self._children[key] for key in sorted(self._children)]

    # Label-less convenience: the family proxies its single child.
    def _only(self) -> _Child:
        if self._default is None:
            raise ValueError(f"{self.name} has labels {self.labelnames}; use .labels(...)")
        return self._default


class Counter(_Family):
    """A monotonically increasing total."""

    kind = "counter"
    child_type = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    @property
    def value(self) -> float:
        return self._only().value

    def render(self) -> Iterable[str]:
        for child in self._sorted_children():
            yield f"{self.name}{_format_labels(self.labelnames, child.label_values)} {_format_value(child.value)}"


class Gauge(_Family):
    """A point-in-time value that can move both ways."""

    kind = "gauge"
    child_type = _GaugeChild

    def set(self, value: float) -> None:
        self._only().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._only().dec(amount)

    @property
    def value(self) -> float:
        return self._only().value

    def render(self) -> Iterable[str]:
        for child in self._sorted_children():
            yield f"{self.name}{_format_labels(self.labelnames, child.label_values)} {_format_value(child.value)}"


class Histogram(_Family):
    """Bucketed observations with cumulative ``le`` buckets."""

    kind = "histogram"
    child_type = _HistogramChild

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.buckets = tuple(sorted(buckets))
        super().__init__(name, help, labelnames)

    def _make_child(self, label_values: tuple[str, ...]) -> _HistogramChild:
        return _HistogramChild(label_values, self.buckets)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    @property
    def sum(self) -> float:
        return self._only().sum

    @property
    def count(self) -> int:
        return self._only().count

    def render(self) -> Iterable[str]:
        for child in self._sorted_children():
            cumulative = 0
            for bound, bucket_count in zip(child.buckets, child.counts):
                cumulative += bucket_count
                labels = _format_labels(
                    self.labelnames, child.label_values, f'le="{_format_value(bound)}"'
                )
                yield f"{self.name}_bucket{labels} {cumulative}"
            labels = _format_labels(self.labelnames, child.label_values, 'le="+Inf"')
            yield f"{self.name}_bucket{labels} {child.count}"
            plain = _format_labels(self.labelnames, child.label_values)
            yield f"{self.name}_sum{plain} {_format_value(child.sum)}"
            yield f"{self.name}_count{plain} {child.count}"


#: Builds instrument families at scrape time (see
#: :meth:`MetricsRegistry.add_collector`).
Collector = Callable[[], Iterable[_Family]]


class MetricsRegistry:
    """Creates and holds instrument families; renders the exposition text."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list[Collector] = []

    def _get_or_create(
        self, factory: type, name: str, help: str, labelnames: Iterable[str], **kwargs: Any
    ) -> _Family:
        labelnames = tuple(labelnames)
        family = self._families.get(name)
        if family is not None:
            if type(family) is not factory or family.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered as a {family.kind} "
                    f"with labels {family.labelnames}"
                )
            return family
        family = factory(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        """Get or create a counter (idempotent per name)."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        """Get or create a gauge (idempotent per name)."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram (idempotent per name)."""
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def add_collector(self, collector: Collector) -> None:
        """Render the families ``collector`` builds on every scrape.

        Lets a value that is already counted elsewhere (a run's fold) be
        exposed without counting it twice.  A collected family whose name
        the registry already holds raises on the scrape.
        """
        self._collectors.append(collector)

    def _scrape(self) -> list[_Family]:
        """Every family, held and collected, in name order."""
        families = dict(self._families)
        for collector in self._collectors:
            for family in collector():
                if family.name in families:
                    raise ValueError(f"metric {family.name!r} is already registered")
                families[family.name] = family
        return [families[name] for name in sorted(families)]

    def exposition(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4.

        Families render in name order, each with its ``# HELP`` / ``# TYPE``
        header, so the output is deterministic given deterministic values —
        the property the golden test pins down.
        """
        lines: list[str] = []
        for family in self._scrape():
            name = family.name
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, float]:
        """Flat ``{series: value}`` view of counters and gauges (JSON-ready).

        Histograms contribute their ``_sum`` and ``_count`` series.  Used by
        :meth:`repro.telemetry.runtime.Telemetry.summary` for the campaign
        manifests.
        """
        out: dict[str, float] = {}
        for family in self._scrape():
            name = family.name
            for child in family._sorted_children():
                labels = _format_labels(family.labelnames, child.label_values)
                if isinstance(child, _HistogramChild):
                    out[f"{name}_sum{labels}"] = child.sum
                    out[f"{name}_count{labels}"] = float(child.count)
                else:
                    out[f"{name}{labels}"] = child.value
        return out
