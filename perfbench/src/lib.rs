//! Closed-loop benchmark of the IMP middleware.
//!
//! One client drives a seeded operation stream through
//! `imp_core::Imp::execute`, one operation in flight at a time, checks
//! the answers and the final sketches, and reports end-to-end metrics.
//! A separate traced run replays the same stream through the layers'
//! public calls and reports per-layer metrics (see [`replay`]).

pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
