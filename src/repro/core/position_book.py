"""Columnar position book: NumPy-backed health-factor scans.

Deciding which of thousands of borrowing positions are liquidatable
(HF < 1, Equation 4) at every block is the measurement pipeline's dominant
cost when done position-by-position: each scalar check rebuilds per-asset
USD value dictionaries just to sum them.  The :class:`PositionBook` keeps
the same data as two dense ``(positions × assets)`` NumPy matrices of token
*amounts* so one whole-protocol scan is two matrix-vector products::

    BC   = C · (P ∘ LT)        # Equation 3 for every position at once
    debt = D · P               # Σ debt value for every position at once
    HF   = BC / debt           # Equation 4, liquidatable where HF < 1

The book is a *cache over* the canonical :class:`~repro.core.position.Position`
dictionaries, not a replacement: every ``Position`` mutator notifies the book
(dirty-row tracking) and :meth:`sync` re-materializes only the dirty rows
before a scan.  Scans therefore cost O(dirty rows) bookkeeping plus one
vectorized pass, instead of O(positions) dictionary churn per step.

Exactness: NumPy's dot products may sum in a different order than the scalar
Python path, so the vectorized comparison against 1 could disagree with the
scalar health factor within a few ulps at the boundary.  The scan is
therefore used as a *conservative prefilter* — rows are selected with a
relative safety margin (:data:`SCAN_MARGIN`, several orders of magnitude
wider than the worst-case dot-product rounding) and callers confirm each
flagged row with the scalar formula.  That keeps vectorized runs
bit-identical to scalar runs while only paying the scalar cost on the
handful of flagged rows.

Aggregate valuations (:class:`BookValuation`) extend the same bargain to the
protocol totals (TVL, outstanding debt, snapshot health factors): the bulk
of the work is vectorized, and the float-sum-order question is resolved by a
*pinned* reduction that is bit-identical to the legacy per-position walk by
construction rather than by margin:

* every per-term product is computed exactly as the scalar path computes it
  (``amount × price``, then ``value × LT`` — never the re-associated
  ``amount × (price × LT)`` a fused matrix-vector product would use);
* a row whose collateral (or debt) has at most two nonzero entries sums
  identically under *any* summation tree — zeros are exact identities and
  float addition is commutative — so its vectorized row-sum already equals
  the scalar dict walk bit-for-bit;
* the few rows with three or more nonzero entries (where tree order starts
  to matter) are recomputed with a tight scalar loop mirroring the
  ``Position`` formulas term-for-term;
* the cross-position reduction runs left-to-right in row order (positions'
  creation order, which is exactly the ``positions`` dict iteration order
  the scalar walk uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .. import sanitize
from ..telemetry import runtime as telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .position import Position

#: Relative safety margin of the vectorized prefilter.  A row is flagged as a
#: liquidation candidate when ``BC < debt × (1 + SCAN_MARGIN)``; the scalar
#: confirmation then decides exactly.  Dot-product rounding is bounded by
#: ``n_assets × machine-epsilon ≈ 1e-14`` relative, so 1e-9 cannot produce a
#: false negative.
SCAN_MARGIN = 1e-9

#: Maximum number of nonzero terms for which *any* floating-point summation
#: tree is guaranteed bit-identical to the scalar left-to-right dict walk:
#: adding 0.0 is an exact identity and two-term addition is commutative, so
#: only rows with three or more nonzero entries can disagree in the last ulp
#: and need the scalar fixup of :class:`BookValuation`.
_EXACT_TREE_MAX_NNZ = 2




@dataclass(frozen=True)
class BookScan:
    """One vectorized valuation pass over every position in a book.

    All arrays are indexed by book row (creation order, which matches the
    protocol's ``positions`` dict iteration order).
    """

    book: "PositionBook"
    collateral_usd: np.ndarray
    debt_usd: np.ndarray
    borrowing_capacity_usd: np.ndarray
    has_debt: np.ndarray
    has_collateral: np.ndarray

    def health_factors(self) -> np.ndarray:
        """Equation 4 per row; ``inf`` where the row owes nothing."""
        hf = np.full(self.debt_usd.shape, np.inf)
        np.divide(
            self.borrowing_capacity_usd,
            self.debt_usd,
            out=hf,
            where=self.debt_usd > 0.0,
        )
        return hf

    def candidate_rows(self, require_collateral: bool = False) -> np.ndarray:
        """Rows that *may* be liquidatable (HF < 1 up to :data:`SCAN_MARGIN`).

        This is the conservative prefilter: every truly liquidatable row is
        included, a boundary row within the margin may be flagged spuriously.
        Callers confirm with the scalar ``Position.is_liquidatable``.
        """
        mask = (
            self.has_debt
            & (self.debt_usd > 0.0)
            & (self.borrowing_capacity_usd < self.debt_usd * (1.0 + SCAN_MARGIN))
        )
        if require_collateral:
            mask &= self.has_collateral
        return np.flatnonzero(mask)

    def under_collateralized_rows(self) -> np.ndarray:
        """Rows that *may* have CR < 1 (Equation 2), margin as above."""
        mask = (
            self.has_debt
            & (self.debt_usd > 0.0)
            & (self.collateral_usd < self.debt_usd * (1.0 + SCAN_MARGIN))
        )
        return np.flatnonzero(mask)

    def positions(self, rows: np.ndarray) -> list["Position"]:
        """The :class:`Position` objects behind ``rows`` (in row order)."""
        return [self.book.position_at(int(row)) for row in rows]


class BookValuation:
    """One aggregate valuation of every position in a book at fixed prices.

    Built by :meth:`PositionBook.valuation` (and cached per block by
    :meth:`repro.protocols.base.LendingProtocol.valuation`), this is the
    single vectorized pass behind the protocol totals, snapshots, analytics
    sweeps and the :class:`~repro.observers.probes.HealthSampler`.

    Two tiers of results are exposed:

    * the *fast* per-row arrays (:attr:`collateral_usd`, :attr:`debt_usd`,
      :attr:`borrowing_capacity_usd`, :meth:`health_factors`,
      :meth:`total_collateral_usd`, …) — pure NumPy reductions, within a few
      ulps of the scalar formulas; they feed fast paths and probes where a
      last-ulp difference is irrelevant;
    * the *pinned* accessors (:meth:`pinned_total_collateral_usd`,
      :meth:`pinned_total_debt_usd`, :meth:`pinned_health_factors`,
      :meth:`pinned_row_values`) — bit-identical to the legacy per-position
      scalar walk by construction (see the module docstring), used for every
      seed-pinned output: archive snapshots, protocol totals, report JSON.

    The per-term products are computed exactly as the scalar path computes
    them: ``values = amounts × prices`` elementwise, then capacity terms as
    ``values × LT`` — deliberately *not* the re-associated
    ``amounts · (prices ∘ LT)`` matrix-vector product of :class:`BookScan`,
    whose BLAS kernel may also fuse multiply-adds.
    """

    def __init__(
        self,
        book: "PositionBook",
        prices: Mapping[str, float],
        thresholds: Mapping[str, float],
        collateral_values: np.ndarray,
        debt_values: np.ndarray,
    ) -> None:
        self.book = book
        #: The price mapping the valuation was computed at (shared, not copied).
        self.prices = prices
        #: The liquidation-threshold mapping used for borrowing capacities.
        self.thresholds = thresholds
        #: Per-``(row, asset)`` USD collateral values (``amount × price``).
        self.collateral_values = collateral_values
        #: Per-``(row, asset)`` USD debt values (``amount × price``).
        self.debt_values = debt_values
        lt_vec = np.fromiter(
            (thresholds.get(symbol, 0.0) for symbol in book.assets),
            dtype=float,
            count=len(book.assets),
        )
        #: Per-row USD totals (fast tier; exact for rows with ≤ 2 nonzero terms).
        self.collateral_usd = collateral_values.sum(axis=1)
        self.debt_usd = debt_values.sum(axis=1)
        self.borrowing_capacity_usd = (collateral_values * lt_vec).sum(axis=1)
        self._pinned: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._built_at_revision = book.revision

    def _require_unmutated(self) -> None:
        """Guard for lazy accessors that read live book state.

        The valuation is a snapshot: its eager arrays were frozen at
        construction, so a lazy first access after a book mutation would
        silently mix two states.  Fail loudly instead (already-materialized
        lazy values keep being served — they were captured while fresh).
        """
        if self.book.revision != self._built_at_revision:
            raise RuntimeError(
                "positions mutated since this valuation was built; "
                "request a fresh one (e.g. protocol.valuation())"
            )

    @cached_property
    def has_debt(self) -> np.ndarray:
        """Per-row "owes anything above dust" flags (lazy; guarded)."""
        self._require_unmutated()
        return self.book._has_debt[: len(self.book)].copy()

    @cached_property
    def has_collateral(self) -> np.ndarray:
        """Per-row "holds anything above dust" flags (lazy; guarded)."""
        self._require_unmutated()
        return self.book._has_collateral[: len(self.book)].copy()

    @cached_property
    def ambiguous_collateral_rows(self) -> np.ndarray:
        """Rows whose collateral summation order could matter (≥ 3 nonzero
        terms); only these get the collateral-side scalar fixup.  Computed
        lazily: fast-tier consumers never pay for it."""
        return np.flatnonzero(
            np.count_nonzero(self.collateral_values, axis=1) > _EXACT_TREE_MAX_NNZ
        )

    @cached_property
    def ambiguous_debt_rows(self) -> np.ndarray:
        """Rows whose debt summation order could matter (≥ 3 nonzero terms)."""
        return np.flatnonzero(
            np.count_nonzero(self.debt_values, axis=1) > _EXACT_TREE_MAX_NNZ
        )

    @property
    def ambiguous_rows(self) -> np.ndarray:
        """Rows needing a scalar fixup on either side (diagnostics)."""
        return np.union1d(self.ambiguous_collateral_rows, self.ambiguous_debt_rows)

    def __len__(self) -> int:
        return self.collateral_usd.shape[0]

    # ------------------------------------------------------------------ #
    # Fast tier: pure NumPy, feeds fast paths and probes
    # ------------------------------------------------------------------ #
    def health_factors(self) -> np.ndarray:
        """Equation 4 per row; ``inf`` where the row owes nothing."""
        hf = np.full(self.debt_usd.shape, np.inf)
        np.divide(
            self.borrowing_capacity_usd,
            self.debt_usd,
            out=hf,
            where=self.debt_usd > 0.0,
        )
        return hf

    def total_collateral_usd(self) -> float:
        """Fast TVL total (within ulps of the scalar walk)."""
        return float(self.collateral_usd.sum())

    def total_debt_usd(self) -> float:
        """Fast outstanding-debt total (within ulps of the scalar walk)."""
        return float(self.debt_usd.sum())

    def total_borrowing_capacity_usd(self) -> float:
        """Fast aggregate borrowing capacity (within ulps of the scalar walk)."""
        return float(self.borrowing_capacity_usd.sum())

    def candidate_rows(self, require_collateral: bool = False) -> np.ndarray:
        """Rows that *may* be liquidatable, margin as in :class:`BookScan`."""
        mask = (
            self.has_debt
            & (self.debt_usd > 0.0)
            & (self.borrowing_capacity_usd < self.debt_usd * (1.0 + SCAN_MARGIN))
        )
        if require_collateral:
            mask &= self.has_collateral
        return np.flatnonzero(mask)

    def under_collateralized_rows(self) -> np.ndarray:
        """Rows that *may* have CR < 1 (Equation 2), margin as above."""
        mask = (
            self.has_debt
            & (self.debt_usd > 0.0)
            & (self.collateral_usd < self.debt_usd * (1.0 + SCAN_MARGIN))
        )
        return np.flatnonzero(mask)

    def positions(self, rows: np.ndarray) -> list["Position"]:
        """The :class:`Position` objects behind ``rows`` (in row order)."""
        return [self.book.position_at(int(row)) for row in rows]

    def collateral_value_column(self, symbol: str) -> np.ndarray | None:
        """Per-row USD value of one collateral asset, or ``None`` if untracked.

        The entries are the exact ``amount × price`` products of the scalar
        ``Position.collateral_values`` dictionaries, so selections like
        "positions holding ℭ" (``column > 0``) match the scalar predicate
        bit-for-bit.
        """
        col = self.book._asset_cols.get(symbol)
        if col is None:
            return None
        return self.collateral_values[:, col]

    # ------------------------------------------------------------------ #
    # Pinned tier: bit-identical to the scalar walk
    # ------------------------------------------------------------------ #
    def _pinned_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row ``(collateral, debt, capacity)`` arrays with the ambiguous
        rows patched by the scalar fixup (computed lazily, once).

        The fixup reads the live ``Position`` dictionaries while the
        vectorized arrays were frozen at construction — mixing the two
        states would silently corrupt the pinned values, so the first
        pinned access must happen before any further book mutation (later
        accesses reuse the already-patched arrays and are safe).
        """
        if self._pinned is None:
            self._require_unmutated()
            collateral = self.collateral_usd.copy()
            debt = self.debt_usd.copy()
            capacity = self.borrowing_capacity_usd.copy()
            prices = self.prices
            get_threshold = self.thresholds.get
            positions = self.book._positions
            # The fixup loops are inlined (no per-row function call): on a
            # production-sized book a third of the rows can be ambiguous and
            # this is the pinned tier's hot loop.
            for row in self.ambiguous_collateral_rows.tolist():
                collateral_usd = 0.0
                capacity_usd = 0.0
                for symbol, amount in positions[row].collateral.items():
                    value = amount * prices[symbol]
                    collateral_usd += value
                    capacity_usd += value * get_threshold(symbol, 0.0)
                collateral[row] = collateral_usd
                capacity[row] = capacity_usd
            for row in self.ambiguous_debt_rows.tolist():
                debt_usd = 0.0
                for symbol, amount in positions[row].debt.items():
                    debt_usd += amount * prices[symbol]
                debt[row] = debt_usd
            self._pinned = (collateral, debt, capacity)
        return self._pinned

    def pinned_row_values(self, row: int) -> tuple[float, float]:
        """Exact ``(collateral_usd, debt_usd)`` of one row, bit-identical to
        ``Position.total_collateral_usd`` / ``total_debt_usd``."""
        collateral, debt, _ = self._pinned_rows()
        return float(collateral[row]), float(debt[row])

    def pinned_total_collateral_usd(self) -> float:
        """TVL total, bit-identical to the scalar per-position walk.

        The reduction runs left-to-right over the exact per-row values in
        row order — the same accumulation chain as
        ``sum(position.total_collateral_usd(prices) for position in
        positions.values())``.  The explicit ``0.0`` start (mirrored by the
        scalar walks) keeps the all-empty-book edge case a float instead of
        ``sum``'s int ``0``.
        """
        collateral, _, _ = self._pinned_rows()
        return sum(collateral.tolist(), 0.0)

    def pinned_total_debt_usd(self) -> float:
        """Outstanding-debt total, bit-identical to the scalar walk."""
        _, debt, _ = self._pinned_rows()
        return sum(debt.tolist(), 0.0)

    def pinned_health_factors(self) -> list[float]:
        """Per-row health factors, bit-identical to
        ``Position.health_factor`` (``inf`` where the row owes nothing)."""
        _, debt, capacity = self._pinned_rows()
        hf = np.full(debt.shape, np.inf)
        np.divide(capacity, debt, out=hf, where=debt > 0.0)
        return hf.tolist()


class PositionBook:
    """Dense columnar mirror of a protocol's positions.

    Rows are positions in creation order; columns are asset symbols.  The
    amounts are mirrored from the canonical ``Position`` dictionaries via
    dirty-row tracking: attach a position with :meth:`attach` and every
    subsequent ``Position`` mutation marks its row for re-sync.
    """

    def __init__(self) -> None:
        self._assets: list[str] = []
        self._asset_cols: dict[str, int] = {}
        self._positions: list[Position] = []
        self._collateral = np.zeros((0, 0))
        self._debt = np.zeros((0, 0))
        #: Per row, ``Position.has_collateral`` / ``has_debt`` as of the
        #: last sync: whether any amount in the row exceeds dust.
        self._has_collateral = np.zeros(0, dtype=bool)
        self._has_debt = np.zeros(0, dtype=bool)
        self._dirty: set[int] = set()
        self._revision = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._positions)

    @property
    def assets(self) -> tuple[str, ...]:
        """Tracked asset columns, in column order."""
        return tuple(self._assets)

    @property
    def dirty_rows(self) -> frozenset[int]:
        """Rows awaiting re-sync (observable for tests and diagnostics)."""
        return frozenset(self._dirty)

    @property
    def revision(self) -> int:
        """Monotonic change counter: bumps on every attach, asset
        registration and position mutation.  Cached valuations keyed on the
        revision (plus the oracle's price version) are exactly as fresh as a
        recomputation."""
        return self._revision

    def position_at(self, row: int) -> "Position":
        """The position stored at ``row``."""
        return self._positions[row]

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def ensure_asset(self, symbol: str) -> int:
        """Register (idempotently) a column for ``symbol`` and return it.

        Symbols are stored verbatim — the book must value exactly the keys
        the position dictionaries hold, with the same missing-threshold /
        missing-price semantics as the scalar formulas.
        """
        col = self._asset_cols.get(symbol)
        if col is None:
            col = len(self._assets)
            self._asset_cols[symbol] = col
            self._assets.append(symbol)
            self._grow(len(self._positions), len(self._assets))
            self._revision += 1
        return col

    def attach(self, position: "Position") -> int:
        """Track ``position`` in the book and return its row."""
        if position._book is not None:
            raise ValueError("position is already attached to a book")
        row = len(self._positions)
        self._positions.append(position)
        self._grow(len(self._positions), len(self._assets))
        position._book = self
        position._row = row
        self._dirty.add(row)
        self._revision += 1
        return row

    def mark_dirty(self, row: int) -> None:
        """Schedule ``row`` for re-materialization at the next sync."""
        self._dirty.add(row)
        self._revision += 1

    def _grow(self, rows: int, cols: int) -> None:
        cap_rows, cap_cols = self._collateral.shape
        if rows <= cap_rows and cols <= cap_cols:
            return
        new_rows = cap_rows if rows <= cap_rows else max(rows, 2 * cap_rows, 64)
        new_cols = cap_cols if cols <= cap_cols else max(cols, 2 * cap_cols, 8)
        collateral = np.zeros((new_rows, new_cols))
        debt = np.zeros((new_rows, new_cols))
        if cap_rows and cap_cols:
            collateral[:cap_rows, :cap_cols] = self._collateral
            debt[:cap_rows, :cap_cols] = self._debt
        self._collateral = collateral
        self._debt = debt
        has_collateral = np.zeros(new_rows, dtype=bool)
        has_debt = np.zeros(new_rows, dtype=bool)
        has_collateral[:cap_rows] = self._has_collateral
        has_debt[:cap_rows] = self._has_debt
        self._has_collateral = has_collateral
        self._has_debt = has_debt

    # ------------------------------------------------------------------ #
    # Sync and scan
    # ------------------------------------------------------------------ #
    def sync(self) -> int:
        """Flush dirty rows from the position dicts into the matrices.

        Returns the number of rows refreshed.
        """
        if not self._dirty:
            return 0
        active = telemetry.active()
        if active is not None:
            active.counter(
                "repro_book_sync_rows_total",
                "Dirty position rows re-materialized into the columnar book",
            ).inc(len(self._dirty))
        for row in self._dirty:
            position = self._positions[row]
            for symbol in position.collateral:
                self.ensure_asset(symbol)
            for symbol in position.debt:
                self.ensure_asset(symbol)
        cols = self._asset_cols
        n_assets = len(self._assets)
        refreshed = len(self._dirty)
        for row in self._dirty:
            position = self._positions[row]
            self._collateral[row, :n_assets] = 0.0
            self._debt[row, :n_assets] = 0.0
            for symbol, amount in position.collateral.items():
                self._collateral[row, cols[symbol]] = amount
            for symbol, amount in position.debt.items():
                self._debt[row, cols[symbol]] = amount
            self._has_collateral[row] = position.has_collateral
            self._has_debt[row] = position.has_debt
        if sanitize.enabled():
            self._check_finite(sorted(self._dirty), n_assets)
        self._dirty.clear()
        return refreshed

    def _check_finite(self, rows: list[int], n_assets: int) -> None:
        """Sanitizer: refreshed rows must hold finite token amounts.

        A NaN or infinity in a collateral/debt cell would flow through every
        matrix product and pinned reduction downstream — NaN in particular
        makes ``HF < 1`` comparisons silently false, hiding the position from
        the liquidation scan instead of crashing.  Catch it at the source.
        """
        for row in rows:
            for name, matrix in (("collateral", self._collateral), ("debt", self._debt)):
                values = matrix[row, :n_assets]
                bad = ~np.isfinite(values)
                if bad.any():
                    col = int(np.argmax(bad))
                    owner = self._positions[row].owner
                    raise sanitize.SanitizerError(
                        f"non-finite {name} amount {values[col]!r} for asset "
                        f"{self._assets[col]!r} on position row {row} (owner "
                        f"{owner}) entered the position book"
                    )

    def scan(self, prices: Mapping[str, float], thresholds: Mapping[str, float]) -> BookScan:
        """One vectorized valuation of every position at ``prices``.

        Missing prices value an asset at 0 and missing thresholds contribute
        no borrowing capacity, mirroring ``terminology.borrowing_capacity``.
        """
        self.sync()
        n_rows = len(self._positions)
        n_assets = len(self._assets)
        price_vec = np.fromiter(
            (prices.get(symbol, 0.0) for symbol in self._assets), dtype=float, count=n_assets
        )
        lt_vec = np.fromiter(
            (thresholds.get(symbol, 0.0) for symbol in self._assets), dtype=float, count=n_assets
        )
        collateral = self._collateral[:n_rows, :n_assets]
        debt = self._debt[:n_rows, :n_assets]
        return BookScan(
            book=self,
            collateral_usd=collateral @ price_vec,
            debt_usd=debt @ price_vec,
            borrowing_capacity_usd=collateral @ (price_vec * lt_vec),
            has_debt=self._has_debt[:n_rows].copy(),
            has_collateral=self._has_collateral[:n_rows].copy(),
        )

    def valuation(self, prices: Mapping[str, float], thresholds: Mapping[str, float]) -> BookValuation:
        """One aggregate :class:`BookValuation` of every position at ``prices``.

        Unlike :meth:`scan`, the per-``(row, asset)`` USD values are
        materialized (``amounts × prices`` elementwise) so the pinned
        accessors can be bit-identical to the scalar walk; see
        :class:`BookValuation`.  Missing prices value an asset at 0 — for
        the pinned tier the caller must supply a price for every held
        symbol, exactly as ``Position.collateral_values`` requires.
        """
        self.sync()
        n_rows = len(self._positions)
        n_assets = len(self._assets)
        price_vec = np.fromiter(
            (prices.get(symbol, 0.0) for symbol in self._assets), dtype=float, count=n_assets
        )
        return BookValuation(
            book=self,
            prices=prices,
            thresholds=thresholds,
            collateral_values=self._collateral[:n_rows, :n_assets] * price_vec,
            debt_values=self._debt[:n_rows, :n_assets] * price_vec,
        )

    def debt_total(self, symbol: str) -> float:
        """Total outstanding amount of ``symbol`` debt across every position.

        Bit-identical to ``sum(position.debt.get(symbol, 0.0) for position
        in positions.values())``: the zero entries of non-holders are exact
        additive identities, and the nonzero entries are accumulated
        left-to-right in row (= dict iteration) order.
        """
        self.sync()
        col = self._asset_cols.get(symbol)
        if col is None:
            return 0.0
        column = self._debt[: len(self._positions), col]
        total = 0.0
        for amount in column[column != 0.0].tolist():
            total += amount
        return total

    def positions_with_debt_entries(self) -> list["Position"]:
        """Positions whose debt dictionary holds any nonzero amount.

        Used by the interest-accrual sweeps to skip debt-free positions:
        ``Position.scale_debts`` is a no-op on the skipped rows (an empty
        debt dict, or one holding only exact zeros), so accrual over this
        subset mutates exactly the same state as the full-population walk.
        """
        self.sync()
        n_rows = len(self._positions)
        n_assets = len(self._assets)
        rows = np.flatnonzero((self._debt[:n_rows, :n_assets] != 0.0).any(axis=1))
        return [self._positions[row] for row in rows.tolist()]
