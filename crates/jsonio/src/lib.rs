//! Dependency-free flat-JSON writing and field extraction.
//!
//! The workspace is fully offline (no serde), yet three places speak
//! JSON: the benchmark binaries write committed `BENCH_*.json` baseline
//! files and read them back in `--smoke` mode, and the `fedval_service`
//! HTTP API exchanges request/response/event bodies. This crate is the
//! shared, deliberately small machinery for both directions:
//!
//! * [`mod@write`] — a [`JsonWriter`] that builds syntactically valid JSON
//!   with explicit layout control (pretty containers for human-diffable
//!   committed files, compact one-line containers for the row/wire
//!   format) and proper string escaping.
//! * [`scan`] — field extractors ([`scan_str`], [`scan_num`]) that pull
//!   `"key": value` pairs back out of flat (non-nested-object) JSON
//!   text without a full parser. Tolerant of arbitrary whitespace
//!   around `:` so they accept wire bodies from other writers, not
//!   just this crate's own output.
//!
//! The scanners are *not* a JSON parser: they assume values of interest
//! live in a flat object (the one-object-per-line row format the
//! writers emit, or a small request body) and that string values of
//! interest don't contain escaped quotes. That contract is exactly what
//! the writers in this workspace produce.

pub mod scan;
pub mod write;

pub use scan::{scan_num, scan_str};
pub use write::{escape_into, escaped, JsonWriter};
