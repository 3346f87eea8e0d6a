//! Aggregates: the per-cell and per-period totals a segment
//! pre-computes at build ([`SegmentRollup`], one header frame of its
//! file), so Stats-style GROUP BY answers merge header frames and decode
//! nothing.

use std::collections::BTreeMap;

use sitm_codec::{put_i64, put_u64, take_count, take_i64, take_u64};
use sitm_core::SemanticTrajectory;
use sitm_graph::CellRef;

use super::index::ZoneMap;
use crate::codec::{decode_cell, encode_cell, CodecError};

/// Per-cell pre-aggregates of one segment (the GROUP BY axes of
/// `sitm_query::aggregate`): distinct trajectories touching the cell,
/// stay (detection) count, and total dwell seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellRollup {
    /// Distinct trajectories with at least one stay in the cell.
    pub trajectories: u64,
    /// Stays (detections) in the cell.
    pub stays: u64,
    /// Summed stay durations in the cell, seconds.
    pub dwell_seconds: u64,
}

impl CellRollup {
    /// Component-wise sum (merging rollups across segments).
    pub fn merge(&mut self, other: &CellRollup) {
        self.trajectories += other.trajectories;
        self.stays += other.stays;
        self.dwell_seconds += other.dwell_seconds;
    }
}

/// Default width of a rollup period bucket (one hour).
pub const DEFAULT_ROLLUP_PERIOD_SECONDS: u64 = 3600;

/// Per-zone / per-period pre-aggregates written at segment build, so
/// Stats-style aggregates answer from headers alone —
/// the pre-aggregated measures the trajectory-warehouse line of work
/// keeps beside its zone metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentRollup {
    /// Width of one period bucket, seconds (0 disables the period axis).
    pub period_seconds: u64,
    /// Per-cell aggregates.
    pub cells: BTreeMap<CellRef, CellRollup>,
    /// Period bucket start (seconds, `bucket * period_seconds`) →
    /// trajectories whose span overlaps the bucket.
    pub periods: BTreeMap<i64, u64>,
}

impl SegmentRollup {
    /// An empty rollup with the given period width (the starting point
    /// for folding trajectories in one at a time with
    /// [`SegmentRollup::add`] — e.g. a live tier aggregated on the
    /// fly).
    pub fn new(period_seconds: u64) -> SegmentRollup {
        SegmentRollup {
            period_seconds,
            ..SegmentRollup::default()
        }
    }

    /// Builds the rollup over a run of trajectories.
    pub fn build(trajectories: &[SemanticTrajectory], period_seconds: u64) -> SegmentRollup {
        let mut rollup = SegmentRollup::new(period_seconds);
        let mut stays = Vec::new();
        for t in trajectories {
            rollup.fold(t, &mut stays);
        }
        rollup
    }

    /// Folds one trajectory into the rollup.
    ///
    /// The row's stays are sorted by cell in a scratch `Vec` (which
    /// [`SegmentRollup::build`] reuses from row to row), so each
    /// distinct cell costs one map probe that takes its stays, its
    /// dwell and its one trajectory together — no set of touched cells
    /// is built per row.
    pub fn add(&mut self, t: &SemanticTrajectory) {
        self.fold(t, &mut Vec::new());
    }

    /// [`SegmentRollup::add`] through the caller's scratch.
    fn fold(&mut self, t: &SemanticTrajectory, stays: &mut Vec<(CellRef, u64)>) {
        stays.clear();
        stays.extend(
            t.trace()
                .intervals()
                .iter()
                .map(|stay| (stay.cell, stay.duration().as_seconds().max(0) as u64)),
        );
        stays.sort_unstable();
        for of_cell in stays.chunk_by(|a, b| a.0 == b.0) {
            let slot = self.cells.entry(of_cell[0].0).or_default();
            slot.trajectories += 1;
            slot.stays += of_cell.len() as u64;
            slot.dwell_seconds += of_cell.iter().map(|(_, dwell)| dwell).sum::<u64>();
        }
        if self.period_seconds > 0 {
            let span = t.span();
            let first = span
                .start
                .as_seconds()
                .div_euclid(self.period_seconds as i64);
            let last = span.end.as_seconds().div_euclid(self.period_seconds as i64);
            for bucket in first..=last {
                *self
                    .periods
                    .entry(bucket * self.period_seconds as i64)
                    .or_insert(0) += 1;
            }
        }
    }

    /// Folds another rollup in: cells merge component-wise, periods sum
    /// per bucket. Only meaningful across rollups sharing the same
    /// `period_seconds` (the warehouse builds every frame with
    /// [`DEFAULT_ROLLUP_PERIOD_SECONDS`]).
    pub fn merge(&mut self, other: &SegmentRollup) {
        for (cell, cr) in &other.cells {
            self.cells.entry(*cell).or_default().merge(cr);
        }
        for (bucket, n) in &other.periods {
            *self.periods.entry(*bucket).or_insert(0) += n;
        }
    }

    /// Checks the rollup against the zone map of the same rows, the
    /// witness of every aggregate a segment opens with. Both frames
    /// hold the exact set of cells with a stay; no cell counts more
    /// trajectories than the segment holds or than its own stays, nor
    /// dwells longer than its stays could inside the zone span; no
    /// period counts more trajectories than the segment holds or lies
    /// outside the span's buckets; and the period width is the one
    /// every segment is built with, so rollups merge.
    pub(super) fn check_against(&self, zone: &ZoneMap) -> Result<(), &'static str> {
        if !zone.cells.iter().eq(self.cells.keys()) {
            return Err("rollup cells disagree with zone map");
        }
        if self.period_seconds != DEFAULT_ROLLUP_PERIOD_SECONDS {
            return Err("rollup period width is not the warehouse's");
        }
        let span = zone
            .span
            .map(|s| (s.start.as_seconds(), s.end.as_seconds()));
        let longest = span.map_or(0, |(start, end)| end.abs_diff(start));
        for cell in self.cells.values() {
            if cell.trajectories > zone.len || cell.trajectories > cell.stays {
                return Err("rollup cell counts more trajectories than it can");
            }
            if u128::from(cell.dwell_seconds) > u128::from(cell.stays) * u128::from(longest) {
                return Err("rollup cell dwells longer than its stays can");
            }
        }
        let period = self.period_seconds as i64;
        let buckets = span.map(|(start, end)| start.div_euclid(period)..=end.div_euclid(period));
        for (&bucket, &n) in &self.periods {
            if n > zone.len {
                return Err("rollup period counts more trajectories than the segment holds");
            }
            let inside = bucket.rem_euclid(period) == 0
                && buckets
                    .as_ref()
                    .is_some_and(|buckets| buckets.contains(&bucket.div_euclid(period)));
            if !inside {
                return Err("rollup period outside the zone span");
            }
        }
        Ok(())
    }

    /// Encodes the rollup.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.period_seconds);
        put_u64(buf, self.cells.len() as u64);
        for (cell, r) in &self.cells {
            encode_cell(buf, *cell);
            put_u64(buf, r.trajectories);
            put_u64(buf, r.stays);
            put_u64(buf, r.dwell_seconds);
        }
        put_u64(buf, self.periods.len() as u64);
        for (bucket, n) in &self.periods {
            put_i64(buf, *bucket);
            put_u64(buf, *n);
        }
    }

    /// Decodes a rollup encoded by [`SegmentRollup::encode`]. Both runs
    /// were encoded strictly ascending, and a run that is not is
    /// refused: inserted into a map, a repeated key would keep its last
    /// entry's aggregates silently.
    pub fn decode(buf: &mut &[u8]) -> Result<SegmentRollup, CodecError> {
        let period_seconds = take_u64(buf)?;
        let cell_count = take_count(buf, 1)?;
        let mut cells = BTreeMap::new();
        for _ in 0..cell_count {
            let cell = decode_cell(buf)?;
            if cells
                .last_key_value()
                .is_some_and(|(&last, _)| last >= cell)
            {
                return Err(CodecError::Unsorted);
            }
            let rollup = CellRollup {
                trajectories: take_u64(buf)?,
                stays: take_u64(buf)?,
                dwell_seconds: take_u64(buf)?,
            };
            cells.insert(cell, rollup);
        }
        let period_count = take_count(buf, 1)?;
        let mut periods = BTreeMap::new();
        for _ in 0..period_count {
            let bucket = take_i64(buf)?;
            let n = take_u64(buf)?;
            if periods
                .last_key_value()
                .is_some_and(|(&last, _)| last >= bucket)
            {
                return Err(CodecError::Unsorted);
            }
            periods.insert(bucket, n);
        }
        Ok(SegmentRollup {
            period_seconds,
            cells,
            periods,
        })
    }
}
