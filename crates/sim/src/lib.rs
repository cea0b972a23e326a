//! # vanet-sim — deterministic discrete-event simulation kernel
//!
//! This crate provides the simulation substrate used by every other crate in
//! the `vanet` workspace: simulation time, a deterministic event queue, a
//! scheduler, seeded random-number streams and a small statistics toolkit.
//!
//! The kernel is intentionally independent of any networking or mobility
//! concept so that it can be unit-tested in isolation and reused for both the
//! packet-level simulation (`vanet-net`) and the mobility updates
//! (`vanet-mobility`).
//!
//! # Example
//!
//! ```
//! use vanet_sim::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_secs(2.0), "world");
//! queue.push(SimTime::from_secs(1.0), "hello");
//! let (t, msg) = queue.pop().unwrap();
//! assert_eq!(t, SimTime::from_secs(1.0));
//! assert_eq!(msg, "hello");
//! ```

#![warn(missing_docs)]

pub mod calendar;
pub mod error;
pub mod event;
pub mod hash;
pub mod ids;
pub mod pool;
pub mod rng;
pub mod scheduler;
pub mod stats;
pub mod time;
pub mod wheel;
pub mod window;

pub use calendar::CalendarQueue;
pub use error::SimError;
pub use event::EventQueue;
pub use hash::{stable_hash_str, StableHasher};
pub use ids::{FlowId, NodeId, PacketId, PacketIdAllocator, SeqNo};
pub use pool::{available_workers, parallel_map_indexed, parallel_map_with_progress};
pub use rng::SimRng;
pub use scheduler::Scheduler;
pub use stats::{Counter, Histogram, RunningStats, TimeWeightedAverage};
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;
pub use window::WindowClock;
