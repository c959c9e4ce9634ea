//! # samm-serve — concurrent litmus-query service
//!
//! A TCP service over the enumeration framework: clients send
//! newline-delimited JSON requests (`enumerate`, `batch`, `verdict`,
//! `witness`, `refutation`, `certify`, `metrics`, `shutdown`) and every
//! enumeration-backed answer flows through the content-addressed
//! [`samm_core::cache::EnumCache`], so a query repeated by any client —
//! or replayed under the other engine — costs a hash lookup.
//!
//! The implementation is std-only (no async runtime, no serde): a
//! hand-rolled JSON codec ([`json`]), a typed wire protocol
//! ([`protocol`]), a request executor ([`handler`]), and a blocking
//! [`client`]. One I/O core hosts the executor: the readiness-driven
//! [`event_loop`] (epoll on Linux, portable `poll` elsewhere — see
//! [`sys`]) with request pipelining, the syscall-amortizing [`batch`]
//! envelope, and graceful drain. [`start`] takes the one
//! configuration type, [`ServerConfig`]. The service runs on Unix
//! only. To scale out, run independent replicas and spread clients
//! over them (`samm-load --endpoints`): every replica can hold the
//! whole catalog key space, so nothing needs to be shared (see
//! EXPERIMENTS E27). `docs/SERVICE.md` documents the wire format; the
//! `samm-serve` binary hosts the server and `samm-load` (in
//! `samm-bench`) replays the catalog against one or many replicas.
//!
//! ## Example: in-process round trip
//!
//! ```
//! use std::time::Duration;
//! use samm_serve::{client::Client, json::Json, ServerConfig};
//!
//! let handle = samm_serve::start(ServerConfig {
//!     workers: 2,
//!     ..ServerConfig::default()
//! }).unwrap();
//! let mut client = Client::connect(handle.addr(), Duration::from_secs(5)).unwrap();
//! let reply = client
//!     .request_raw(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#)
//!     .unwrap();
//! assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]
// Denied rather than forbidden: the readiness poller ([`sys`]) opts in
// for its two syscall surfaces (epoll/poll); everything else stays safe.
#![deny(unsafe_code)]

pub mod batch;
pub mod client;
#[cfg(unix)]
pub mod event_loop;
pub mod handler;
pub mod json;
pub mod protocol;
#[cfg(unix)]
pub mod server;
#[cfg(unix)]
#[allow(unsafe_code)]
pub mod sys;
pub mod telemetry;

pub use client::{Client, ClientError};
#[cfg(unix)]
pub use event_loop::{start, ServerHandle};
pub use handler::ServerState;
pub use json::Json;
pub use protocol::{
    parse_envelope, parse_request, EngineSel, Envelope, ErrorKind, Request, ServiceError, MAX_BATCH,
};
#[cfg(unix)]
pub use server::ServerConfig;
pub use telemetry::{ReqOutcome, Telemetry};
