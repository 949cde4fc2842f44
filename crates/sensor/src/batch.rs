//! Batched beam storage for the data-parallel correction kernel.
//!
//! The observation step evaluates every beam for every particle. The
//! array-of-structs [`Beam`] representation makes each evaluation recompute the
//! beam's geometry from scratch — `cos`/`sin` of the beam azimuth *per particle
//! per beam*. [`BeamBatch`] hoists everything that does not depend on the
//! particle out of the hot loop, **once per update**:
//!
//! * the beam end point is resolved in the *drone body frame*
//!   (`sensor offset + range · (cos az, sin az)`) and stored in two contiguous
//!   arrays `end_x_body[]` / `end_y_body[]`;
//! * the measured ranges stay available in `range_m[]` for the observation
//!   model's `r_max` truncation.
//!
//! Scoring a particle then needs exactly one `sin_cos` (of the particle's yaw)
//! plus four multiply-adds and one distance-field lookup per beam — the
//! arithmetic the paper's GAP9 kernel performs. Rotating the precomputed
//! body-frame end point is mathematically identical to [`Beam::end_point`] but
//! associates the trigonometry differently, so likelihoods may differ from the
//! per-beam path in the last float ulp.
//!
//! The observation model scores only beams measuring strictly below its
//! `r_max` truncation (a NaN range is excluded too). This module is the one
//! place that rule is applied: [`BeamBatch::in_range_slices`] resolves the
//! in-range end points once per kernel call, and every scoring body scores
//! each entry it is handed, with no range test in the hot loop. Because
//! `r_max` is fixed per filter configuration,
//! [`BeamBatch::partition_in_range`] can do the work **once per update**: it
//! stably partitions the arrays so every in-range beam forms a leading prefix
//! and records the `(r_max, prefix length)` pair, and the resolver then
//! borrows that prefix instead of copying. The partition is *stable*
//! (in-range beams keep their relative order), so the borrowed prefix and
//! the owned copy hold the same end points in the same order and every
//! log-likelihood sum over them is bit-identical.

use crate::measurement::{Beam, ToFFrame};
use crate::rig::SensorRig;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The cached outcome of [`BeamBatch::partition_in_range`]: every beam in
/// `0..len` measures strictly below `r_max`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct InRangePrefix {
    r_max: f32,
    len: usize,
}

/// A frame's worth of valid beams, flattened into contiguous per-component
/// arrays (structure of arrays) for the batched correction kernel.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BeamBatch {
    end_x_body: Vec<f32>,
    end_y_body: Vec<f32>,
    range_m: Vec<f32>,
    in_range: Option<InRangePrefix>,
}

impl BeamBatch {
    /// Flattens a beam list into the batched representation.
    pub fn from_beams(beams: &[Beam]) -> Self {
        let mut batch = BeamBatch {
            end_x_body: Vec::with_capacity(beams.len()),
            end_y_body: Vec::with_capacity(beams.len()),
            range_m: Vec::with_capacity(beams.len()),
            in_range: None,
        };
        for beam in beams {
            batch.push(beam);
        }
        batch
    }

    /// Reduces a set of captured frames to beams (median per zone column,
    /// invalid zones dropped — see [`ToFFrame::to_beams`], geometry rebuilt per
    /// frame mode by [`SensorRig::frames_to_beams`]) and flattens them. This
    /// runs **once per observation update**; the per-particle kernel only
    /// reads the resulting arrays.
    pub fn from_frames(frames: &[ToFFrame]) -> Self {
        Self::from_beams(&SensorRig::frames_to_beams(frames))
    }

    /// Appends one beam. Invalidates any in-range prefix recorded by
    /// [`BeamBatch::partition_in_range`].
    pub fn push(&mut self, beam: &Beam) {
        let (sin_az, cos_az) = beam.azimuth_body_rad.sin_cos();
        self.end_x_body
            .push(beam.origin_body.x + cos_az * beam.range_m);
        self.end_y_body
            .push(beam.origin_body.y + sin_az * beam.range_m);
        self.range_m.push(beam.range_m);
        self.in_range = None;
    }

    /// Stably partitions the beam arrays so every beam with a measured range
    /// strictly below `r_max` forms a leading prefix, records the prefix for
    /// [`BeamBatch::in_range_prefix`] lookups, and returns its length.
    ///
    /// In-range beams keep their relative order (and so do the out-of-range
    /// beams moved behind them), so [`BeamBatch::in_range_slices`] can borrow
    /// the prefix instead of copying the in-range end points, and the scores
    /// stay bit-identical. Call this once per update, after the batch is
    /// fully built; `r_max` is a static filter parameter, so the partition is
    /// reused by every kernel call.
    pub fn partition_in_range(&mut self, r_max: f32) -> usize {
        if let Some(prefix) = self.in_range {
            if prefix.r_max == r_max {
                return prefix.len;
            }
        }
        let n = self.range_m.len();
        let mut order: Vec<usize> = (0..n).filter(|&i| self.range_m[i] < r_max).collect();
        let len = order.len();
        if len < n {
            order.extend((0..n).filter(|&i| self.range_m[i] >= r_max));
            self.end_x_body = order.iter().map(|&i| self.end_x_body[i]).collect();
            self.end_y_body = order.iter().map(|&i| self.end_y_body[i]).collect();
            self.range_m = order.iter().map(|&i| self.range_m[i]).collect();
        }
        self.in_range = Some(InRangePrefix { r_max, len });
        len
    }

    /// Length of the in-range prefix previously computed by
    /// [`BeamBatch::partition_in_range`] for this exact `r_max`, or `None`
    /// when the batch has not been partitioned (or was partitioned for a
    /// different truncation).
    pub fn in_range_prefix(&self, r_max: f32) -> Option<usize> {
        self.in_range
            .filter(|prefix| prefix.r_max == r_max)
            .map(|prefix| prefix.len)
    }

    /// The body-frame end points `(end_x_body, end_y_body)` of exactly the
    /// beams measuring strictly below `r_max` (a NaN range is excluded), in
    /// their original order — the only beams the observation model scores.
    ///
    /// When the batch was [partitioned](BeamBatch::partition_in_range) for
    /// exactly this `r_max` the pair borrows the partition's prefix;
    /// otherwise it is an owned copy of the in-range end points. The
    /// partition is stable, so both forms hold the same values in the same
    /// order. The correction kernel resolves this once per chunk call and
    /// scores every entry branch-free.
    pub fn in_range_slices(&self, r_max: f32) -> (Cow<'_, [f32]>, Cow<'_, [f32]>) {
        if let Some(len) = self.in_range_prefix(r_max) {
            return (
                Cow::Borrowed(&self.end_x_body[..len]),
                Cow::Borrowed(&self.end_y_body[..len]),
            );
        }
        let in_range = |values: &[f32]| -> Vec<f32> {
            values
                .iter()
                .zip(&self.range_m)
                .filter(|&(_, &range)| range < r_max)
                .map(|(&value, _)| value)
                .collect()
        };
        (
            Cow::Owned(in_range(&self.end_x_body)),
            Cow::Owned(in_range(&self.end_y_body)),
        )
    }

    /// Number of beams in the batch.
    pub fn len(&self) -> usize {
        self.range_m.len()
    }

    /// Returns `true` when the batch holds no beams.
    pub fn is_empty(&self) -> bool {
        self.range_m.is_empty()
    }

    /// Body-frame X coordinates of the beam end points.
    pub fn end_x_body(&self) -> &[f32] {
        &self.end_x_body
    }

    /// Body-frame Y coordinates of the beam end points.
    pub fn end_y_body(&self) -> &[f32] {
        &self.end_y_body
    }

    /// Measured ranges, metres (the input of the observation model's `r_max`
    /// truncation, see [`BeamBatch::in_range_slices`]).
    pub fn range_m(&self) -> &[f32] {
        &self.range_m
    }

    /// Number of beams with a measured range strictly below `r_max` — the beams
    /// the observation model will actually use.
    pub fn beams_within(&self, r_max: f32) -> usize {
        self.range_m.iter().filter(|&&r| r < r_max).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SensorConfig;
    use crate::measurement::{TargetStatus, ZoneMeasurement};
    use crate::rig::SensorRig;
    use crate::zones::ZoneGeometry;
    use mcl_gridmap::{MapBuilder, Pose2};
    use rand::SeedableRng;

    fn clean_rig() -> SensorRig {
        SensorRig::front_and_rear(
            SensorConfig::default()
                .with_range_noise(0.0)
                .with_interference_probability(0.0),
        )
    }

    #[test]
    fn batch_matches_per_beam_end_points_at_identity_pose() {
        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let beams = clean_rig().observe(&map, &Pose2::new(2.0, 2.0, 0.0), 0.0, &mut rng);
        let batch = BeamBatch::from_beams(&beams);
        assert_eq!(batch.len(), beams.len());
        // At the identity pose the body frame *is* the world frame, so the
        // precomputed end points must equal Beam::end_point exactly up to the
        // trig association (loose tolerance covers the ulp difference).
        for (i, beam) in beams.iter().enumerate() {
            let reference = beam.end_point(&Pose2::default());
            assert!((batch.end_x_body()[i] - reference.x).abs() < 1e-5);
            assert!((batch.end_y_body()[i] - reference.y).abs() < 1e-5);
            assert_eq!(batch.range_m()[i], beam.range_m);
        }
    }

    #[test]
    fn from_frames_flattens_like_the_rig_conversion() {
        let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
        let rig = clean_rig();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let frames = rig.capture(&map, &Pose2::new(1.5, 2.5, 0.4), &mut rng);
        let via_frames = BeamBatch::from_frames(&frames);
        let via_beams = BeamBatch::from_beams(&SensorRig::frames_to_beams(&frames));
        assert_eq!(via_frames, via_beams);
        assert_eq!(via_frames.len(), 16);
    }

    #[test]
    fn invalid_zones_never_reach_the_batch() {
        let frame = ToFFrame {
            timestamp_s: 0.0,
            mode: crate::config::ZoneMode::Grid4x4,
            mounting: Pose2::default(),
            zones: vec![
                ZoneMeasurement {
                    col: 0,
                    row: 0,
                    distance_m: 1.0,
                    status: TargetStatus::Valid,
                },
                ZoneMeasurement {
                    col: 1,
                    row: 0,
                    distance_m: 2.0,
                    status: TargetStatus::OutOfRange,
                },
            ],
        };
        let batch = BeamBatch::from_frames(&[frame]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.range_m()[0], 1.0);
    }

    #[test]
    fn partition_in_range_is_stable_and_cached() {
        let make = |range: f32, azimuth: f32| Beam {
            azimuth_body_rad: azimuth,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let beams = [
            make(0.5, 0.0),
            make(2.0, 0.3),
            make(0.7, 0.6),
            make(1.8, 0.9),
            make(0.2, 1.2),
        ];
        let mut batch = BeamBatch::from_beams(&beams);
        assert_eq!(batch.in_range_prefix(1.5), None);
        let len = batch.partition_in_range(1.5);
        assert_eq!(len, 3);
        assert_eq!(batch.in_range_prefix(1.5), Some(3));
        assert_eq!(batch.in_range_prefix(1.0), None);
        // In-range beams keep their relative order, out-of-range follow.
        assert_eq!(batch.range_m(), &[0.5, 0.7, 0.2, 2.0, 1.8]);
        // The end-point components moved with their ranges.
        let reference = BeamBatch::from_beams(&[beams[0], beams[2], beams[4], beams[1], beams[3]]);
        assert_eq!(batch.end_x_body(), reference.end_x_body());
        assert_eq!(batch.end_y_body(), reference.end_y_body());
        // Repartitioning for the same r_max is a cached no-op.
        assert_eq!(batch.partition_in_range(1.5), 3);
        // A different truncation repartitions (0.2 and 0.5 and 0.7 < 1.0).
        assert_eq!(batch.partition_in_range(1.0), 3);
        assert_eq!(batch.in_range_prefix(1.5), None);
        // Pushing invalidates the prefix.
        batch.push(&make(0.4, 0.0));
        assert_eq!(batch.in_range_prefix(1.0), None);
    }

    #[test]
    fn in_range_slices_expose_exactly_the_partitioned_prefix() {
        let make = |range: f32, azimuth: f32| Beam {
            azimuth_body_rad: azimuth,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let is_borrowed = |(xs, ys): &(Cow<'_, [f32]>, Cow<'_, [f32]>)| {
            matches!(xs, Cow::Borrowed(_)) && matches!(ys, Cow::Borrowed(_))
        };
        let beams = [make(0.5, 0.0), make(2.0, 0.3), make(0.7, 0.6)];
        // The in-range beams (range < 1.5), in their original order.
        let expected = BeamBatch::from_beams(&[beams[0], beams[2]]);
        let matches_expected = |(xs, ys): &(Cow<'_, [f32]>, Cow<'_, [f32]>)| {
            **xs == *expected.end_x_body() && **ys == *expected.end_y_body()
        };
        let mut batch = BeamBatch::from_beams(&beams);
        // Unpartitioned: an owned copy of the in-range beams.
        let owned = batch.in_range_slices(1.5);
        assert!(!is_borrowed(&owned));
        assert!(matches_expected(&owned));
        let len = batch.partition_in_range(1.5);
        assert_eq!(len, 2);
        // Partitioned for this r_max: the borrowed prefix, same values.
        let borrowed = batch.in_range_slices(1.5);
        assert!(is_borrowed(&borrowed));
        assert_eq!(&*borrowed.0, &batch.end_x_body()[..2]);
        assert_eq!(&*borrowed.1, &batch.end_y_body()[..2]);
        assert!(matches_expected(&borrowed));
        // Partitioned for a different r_max: an owned copy for the asked one
        // (only the 0.5 m beam is below 0.6 m).
        let other = batch.in_range_slices(0.6);
        assert!(!is_borrowed(&other));
        assert_eq!(&*other.0, &expected.end_x_body()[..1]);
        assert_eq!(&*other.1, &expected.end_y_body()[..1]);
        // NaN ranges are excluded from both forms.
        let mut nan_batch =
            BeamBatch::from_beams(&[make(0.5, 0.0), make(f32::NAN, 0.3), make(0.7, 0.6)]);
        assert!(matches_expected(&nan_batch.in_range_slices(1.5)));
        nan_batch.partition_in_range(1.5);
        let nan_borrowed = nan_batch.in_range_slices(1.5);
        assert!(is_borrowed(&nan_borrowed));
        assert!(matches_expected(&nan_borrowed));
        // An all-skipped batch exposes an empty (not absent) prefix.
        let mut far = BeamBatch::from_beams(&[make(2.0, 0.0)]);
        assert!(far.in_range_slices(1.5).0.is_empty());
        far.partition_in_range(1.5);
        let (xs, ys) = far.in_range_slices(1.5);
        assert!(xs.is_empty() && ys.is_empty());
    }

    #[test]
    fn partition_of_all_in_range_beams_keeps_the_arrays_untouched() {
        let make = |range: f32| Beam {
            azimuth_body_rad: 0.1,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let beams = [make(0.5), make(0.7), make(1.2)];
        let mut batch = BeamBatch::from_beams(&beams);
        let untouched = batch.clone();
        assert_eq!(batch.partition_in_range(1.5), 3);
        assert_eq!(batch.range_m(), untouched.range_m());
        assert_eq!(batch.end_x_body(), untouched.end_x_body());
        let mut empty = BeamBatch::default();
        assert_eq!(empty.partition_in_range(1.5), 0);
        assert_eq!(empty.in_range_prefix(1.5), Some(0));
    }

    #[test]
    fn beams_within_counts_the_rmax_skip() {
        let make = |range: f32| Beam {
            azimuth_body_rad: 0.0,
            range_m: range,
            origin_body: Pose2::default(),
        };
        let batch = BeamBatch::from_beams(&[make(0.5), make(1.5), make(2.0)]);
        assert_eq!(batch.beams_within(1.5), 1);
        assert_eq!(batch.beams_within(3.0), 3);
        assert!(BeamBatch::default().is_empty());
    }

    #[test]
    fn rear_mounting_flips_the_body_frame_end_point() {
        let beam = Beam {
            azimuth_body_rad: core::f32::consts::PI,
            range_m: 1.0,
            origin_body: Pose2::new(0.0, 0.0, core::f32::consts::PI),
        };
        let batch = BeamBatch::from_beams(&[beam]);
        assert!((batch.end_x_body()[0] + 1.0).abs() < 1e-6);
        assert!(batch.end_y_body()[0].abs() < 1e-6);
    }

    #[test]
    fn geometry_helper_still_matches_column_azimuths() {
        // Guard that from_frames uses the per-mode geometry (column azimuths)
        // and not a fixed 8x8 assumption.
        let cfg = SensorConfig::default().with_mode(crate::config::ZoneMode::Grid4x4);
        let geometry = ZoneGeometry::new(&cfg);
        assert_eq!(geometry.column_azimuths().len(), 4);
    }
}
