//! The ConVGPU wire protocol.
//!
//! The paper (§III-A): *"These components … are connected and communicating
//! using UNIX Domain Socket with JSON format."* This crate is that layer,
//! and it is **not** simulated — the live stack really speaks
//! newline-delimited JSON over `std::os::unix::net` sockets, so the Fig. 4
//! response-time experiment measures genuine IPC cost.
//!
//! * [`message`] — the request/response schema: container registration,
//!   allocation requests/decisions, free notifications, `cudaMemGetInfo`
//!   service, process-exit and container-close signals. Each message is
//!   declared once, as a table row, and its JSON and binary codecs are
//!   generated from that row.
//! * [`json`] — the JSON codec the schema implements (the sealed build
//!   environment has no serde): [`json::ToJson`] writes a message straight
//!   into its frame buffer and [`json::FromJson`] pulls its fields off the
//!   received line, with no value tree between; plus [`json::Json`] and
//!   [`json::parse`] for reading arbitrary JSON.
//! * [`codec`] — newline-delimited JSON framing with a line-length guard.
//! * [`binary`] — length-prefixed compact binary framing and its
//!   primitives (varints, strings, lists), negotiated per connection by
//!   the first byte of each frame (JSON lines start with `{`; binary
//!   frames with a magic byte). JSON stays the default — the binary codec
//!   is the hot-path option for allocation storms.
//! * [`endpoint`] — [`endpoint::Transact`], one message in and its reply
//!   out, and on top of it [`endpoint::SchedulerEndpoint`], the
//!   synchronous typed interface the wrapper module calls (the
//!   typed↔message conversions are written there once, for every
//!   transport). A *suspended* allocation (the scheduler withholding its
//!   reply, §III-D) surfaces here as a blocking call, exactly as
//!   `read(2)` on the socket blocks in the original.
//! * [`client`] — [`client::SchedulerClient`]: the wrapper side of the
//!   socket, with request correlation so several processes in one
//!   container can share the socket. It owns no thread: the caller that
//!   waits for a reply reads the socket itself, and hands replies meant
//!   for other callers to them.
//! * [`server`] — [`server::SocketServer`]: accept loop + per-connection
//!   reader threads + deferred [`server::Reply`] handles, which is what
//!   lets the scheduler park a reply and release the thread.
//! * [`transport`] — the pluggable transport layer:
//!   [`transport::EndpointAddr`] (`unix:/path`, `tcp:host:port`),
//!   [`transport::Conn`] and [`transport::TransportListener`]. UNIX
//!   sockets stay the default (byte-identical to the paper's stack); TCP
//!   adds real multi-host clusters behind the same wire protocol, with a
//!   version-checked hello frame and half-open-peer timeouts.

#![forbid(unsafe_code)]

pub mod binary;
pub mod client;
pub mod codec;
pub mod endpoint;
pub mod json;
pub mod message;
pub mod server;
pub mod transport;

pub use binary::{read_auto, read_binary, write_binary, WireCodec, MAX_FRAME_BYTES};
pub use client::{ClientObs, SchedulerClient};
pub use codec::{read_json, write_json, MAX_LINE_BYTES};
pub use endpoint::{IpcError, IpcResult, SchedulerEndpoint, Transact};
pub use message::{AllocDecision, ApiKind, ClusterNodeStatus, Envelope, Request, Response};
pub use server::{Reply, RequestHandler, ServerObs, SocketServer};
pub use transport::{Conn, EndpointAddr, TransportListener};
