//! # pmevo-serve — the long-lived prediction daemon
//!
//! `pmevo-cli predict` serves one client through a stdin/stdout pipe;
//! this crate promotes that serving path to a persistent daemon that
//! multiplexes many concurrent clients over TCP and Unix sockets.
//!
//! ## Wire protocol
//!
//! The protocol is deliberately the CLI's pipe, framed over a socket:
//! newline-delimited text in, newline-delimited compact JSON records
//! out. A request line is either
//!
//! * a **sequence line** of the shared grammar
//!   ([`pmevo_core::parse_sequence`]), optionally prefixed with
//!   `PLATFORM:` to route to a specific stored mapping — answered with
//!   the same [`pmevo_core::ServeRecord`] JSON that `pmevo-cli predict`
//!   prints (`{"line":N,"mapping":"NAME@V","cycles":T}` or
//!   `{"line":N,"error":"..."}`, where `N` counts the *client's* input
//!   lines), so a client's response stream is byte-identical to the
//!   offline run of the same lines; or
//! * a **control line** starting with `!`
//!   ([`pmevo_core::parse_control`]): `!stats`, `!mappings`,
//!   `!reload NAME=file.json` or `!shutdown`.
//!
//! ## Architecture
//!
//! Each connection gets a *reader* and a *writer* thread; readers parse
//! and route lines, then push submissions into one shared queue. A
//! single *coalescer* thread drains that queue, merging small per-client
//! windows into one batch through the [`pmevo_predict::Predictor`]
//! worker pool (the cached batch path is ~31× faster than per-sequence
//! dispatch, so cross-connection coalescing is what keeps throughput up
//! under many small clients), bounded by a max-batch/max-delay policy
//! ([`ServeConfig`]). Control verbs act as barriers: the window in
//! flight is flushed first, so per-client response order is always input
//! order.
//!
//! Backpressure is per connection: each connection may have at most
//! [`ServeConfig::max_inflight`] unanswered lines, enforced by a gate
//! the reader blocks on — a slow or stalled *client* throttles only its
//! own socket, never the daemon. Hot reload goes through
//! [`pmevo_predict::Predictor::insert_mapping`]: the new store is
//! swapped in atomically and batches in flight drain against the
//! snapshot they started with.

#![deny(missing_docs)]

mod server;
mod specs;

pub use server::{Server, ServeConfig};
pub use specs::{load_spec_artifact, route_line, store_from_specs};

#[cfg(test)]
#[path = "../../../tests/support/mod.rs"]
mod test_support;
