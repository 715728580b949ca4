"""repro — a reproduction of "An Empirical Study of DeFi Liquidations" (IMC 2021).

The package is organised in layers:

* :mod:`repro.core` — the paper's financial model: health factors, fixed
  spread and auction liquidation mechanics, the optimal liquidation strategy,
  sensitivity (Algorithm 1), bad debt, and the mechanism comparison metric.
* Substrates — :mod:`repro.chain`, :mod:`repro.tokens`, :mod:`repro.oracle`,
  :mod:`repro.amm`, :mod:`repro.flashloan`: the Ethereum-like environment the
  paper measures, rebuilt as a deterministic simulator.
* :mod:`repro.protocols` — Aave V1/V2, Compound, dYdX and MakerDAO.
* :mod:`repro.agents` and :mod:`repro.simulation` — the agent population and
  the block-stride engine.
* :mod:`repro.scenarios` — the composable scenario API: the fluent
  :class:`~repro.scenarios.ScenarioBuilder`, first-class incidents, and the
  named scenario registry behind the ``python -m repro`` CLI.
* :mod:`repro.observers` — the streaming observer API: typed
  :class:`~repro.observers.events.SimEvent` s published by the engine's
  bus, consumed live by probes (liquidation recording, health-factor
  sampling, per-step metrics, JSONL sinks), plus the one tiered alert
  policy behind both ``repro watch`` and ``repro serve``.
* :mod:`repro.analytics` — the measurement pipeline (the paper's "custom
  client").
* :mod:`repro.experiments` — one harness per table and figure of the paper.

Quickstart::

    from repro import scenarios
    from repro.analytics import profit_report

    result = scenarios.get("small").run(seed=7)
    print(profit_report(result.records))

or, without writing any code::

    python -m repro run --scenario march-2020-only --report table1
    python -m repro watch march-2020-only --hf-below 1.1
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
