//! # starbench — socket-level star-schema benchmark for `dwc serve`
//!
//! One load-generator process drives the shipped `dwc serve` binary over
//! loopback with the star schema of `examples/specs/starschema.dwc`. See
//! `README.md` in this directory for the workloads, the metrics and the
//! layer each metric belongs to.

pub mod client;
pub mod gen;
pub mod json;
pub mod server;
pub mod stats;
pub mod trace;
