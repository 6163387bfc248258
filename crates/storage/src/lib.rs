//! # imp-storage
//!
//! Storage substrate for the IMP system (In-memory Incremental Maintenance
//! of Provenance Sketches, EDBT 2026).
//!
//! This crate provides the building blocks every other crate sits on:
//!
//! * [`Value`] / [`Row`] — the dynamically typed tuple model with a total
//!   order and hash (bag semantics needs tuples as map keys).
//! * [`BitVec`] — compact bitvectors; provenance sketches are encoded as
//!   bitvectors over the ranges of a partition (paper §7.1).
//! * [`ColumnData`] / [`DataChunk`] / [`Table`] — columnar storage split
//!   into horizontal chunks with zone maps (min/max per column per chunk)
//!   so range predicates produced by the *use rewrite* can skip chunks.
//! * [`DeltaLog`] — the snapshot-versioned log of inserted/deleted rows a
//!   backend keeps per table; IMP fetches "the delta between the current
//!   version of the database and the database instance at the original
//!   time of capture" (paper §1) from this log.
//! * [`pool`] — the interned delta pipeline: [`AnnotPool`] hash-conses
//!   annotation bitvectors into small [`AnnotId`]s with memoized unions,
//!   [`RowInterner`] deduplicates tuple payloads, and [`DeltaBatch`] is
//!   the arena-backed batch representation operators exchange.
//! * [`codec`] — a small length-prefixed binary codec used to persist
//!   sketches and incremental operator state (paper §2: "the system can
//!   persist the state that it maintains for its incremental operators").

pub mod bitvec;
pub mod chunk;
pub mod codec;
pub mod column;
pub mod delta;
pub mod error;
pub mod hash;
pub mod pool;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use bitvec::BitVec;
pub use chunk::{ChunkBuilder, DataChunk, ZoneMap};
pub use column::ColumnData;
pub use delta::{DeltaLog, DeltaOp, DeltaRecord};
pub use error::StorageError;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pool::{AnnotId, AnnotPool, DeltaBatch, DeltaEntry, PoolStats, RowInterner};
pub use row::Row;
pub use schema::{Field, Schema};
pub use table::Table;
pub use value::{DataType, Value};

/// Result alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
