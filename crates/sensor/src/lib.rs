//! Model of the VL53L5CX multizone time-of-flight sensor used by the paper.
//!
//! The paper's custom "multizone ToF deck" carries up to two VL53L5CX sensors
//! (one forward- and one backward-facing). Each sensor returns a matrix of either
//! 8×8 zones at up to 15 Hz or 4×4 zones at up to 60 Hz; every zone reports a
//! distance and an error flag that is raised for out-of-range measurements or
//! interference. Each sensor draws about 320 mW.
//!
//! Because the physical sensor is unavailable in this reproduction, this crate
//! simulates it against an occupancy grid map (the same map geometry the particle
//! filter localizes in):
//!
//! * [`config`] — zone-matrix modes, field of view, range limits, rates, noise.
//! * [`zones`] — the angular direction of each zone within the field of view.
//! * [`raycast`] — DDA ray casting against an [`mcl_gridmap::OccupancyGrid`].
//! * [`measurement`] — zone measurements, frames and their conversion to the
//!   2D beams consumed by the observation model.
//! * [`batch`] — per-update flattening of a frame's valid beams into contiguous
//!   arrays ([`BeamBatch`]) for the data-parallel correction kernel.
//! * [`fusion`] — the sensor-agnostic [`ObservationBatch`]: ToF beams and/or
//!   UWB anchor ranges ([`AnchorRange`]) for the multi-sensor correction step.
//! * [`model`] — the sensor itself: cast one ray per zone, apply range noise,
//!   raise error flags.
//! * [`rig`] — one- and two-sensor mounting configurations on the drone body.
//!
//! # Example
//!
//! ```
//! use mcl_gridmap::{MapBuilder, Pose2};
//! use mcl_sensor::{SensorConfig, SensorRig};
//! use rand::SeedableRng;
//!
//! let map = MapBuilder::new(4.0, 4.0, 0.05).border_walls().build();
//! let rig = SensorRig::front_and_rear(SensorConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let frames = rig.capture(&map, &Pose2::new(2.0, 2.0, 0.0), &mut rng);
//! assert_eq!(frames.len(), 2);
//! let beams = SensorRig::frames_to_beams(&frames);
//! assert!(!beams.is_empty());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod config;
pub mod fusion;
pub mod measurement;
pub mod model;
pub mod raycast;
pub mod rig;
pub mod zones;

pub use batch::BeamBatch;
pub use config::{SensorConfig, ZoneMode, SENSOR_POWER_MW};
pub use fusion::{anchor_is_usable, AnchorRange, ObservationBatch};
pub use measurement::{Beam, TargetStatus, ToFFrame, ZoneMeasurement};
pub use model::ToFSensor;
pub use raycast::raycast_distance;
pub use rig::SensorRig;
pub use zones::ZoneGeometry;
