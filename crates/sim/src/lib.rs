//! # amdb-sim — deterministic discrete-event simulation kernel
//!
//! The reproduction replaces the paper's physical testbed (Amazon EC2 VMs,
//! 35-minute wall-clock runs) with a deterministic discrete-event simulation:
//! virtual time advances from event to event, so a full 35-minute Cloudstone
//! run completes in milliseconds of host time and every experiment is exactly
//! reproducible from its seed.
//!
//! The kernel is deliberately small and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time
//!   newtypes (MySQL's second-resolution `NOW()` forced the paper's authors to
//!   write a microsecond UDF, §III-A, so the kernel resolution matches it).
//! * [`Sim`] — an agenda of `(time, seq, event)` entries over a caller-owned
//!   world `W`. Components live inside `W`; the world crate names its events
//!   in one `enum` implementing [`Event`], and firing one mutates `W` and
//!   schedules follow-up events.
//! * [`FifoCpu`] — a non-preemptive FIFO single-server CPU model; database
//!   service times, saturation and queueing delay all emerge from it.
//! * [`rng`] — a self-contained, seedable PRNG with the distributions the
//!   experiments need (uniform, exponential, normal, lognormal). We ship our
//!   own generator rather than depending on `rand` so that every figure is
//!   bit-reproducible regardless of upstream crate changes.

pub mod kernel;
pub mod resource;
pub mod rng;
pub mod time;

pub use kernel::{Event, Sim};
pub use resource::FifoCpu;
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
