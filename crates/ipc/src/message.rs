//! Protocol message schema — the one place a wire message is defined.
//!
//! One JSON object per line; every message is an [`Envelope`] carrying a
//! correlation `id` and a body. Requests flow wrapper/nvidia-docker →
//! scheduler; responses flow back with the same `id`. A request under
//! id 0 is a report that gets no response: the wrapper sends
//! `alloc_done`, `alloc_failed` and `free` that way (see
//! `docs/PROTOCOL.md`, "Envelope").
//!
//! Every type below is declared once, as a `wire!` table row: variant,
//! JSON wire name, binary tag, fields. The macro expands a table to the
//! type itself plus its [`ToJson`], [`FromJson`], [`ToBinary`] and
//! [`FromBinary`] impls — one straight-line `match` arm per row, no
//! schema walked at run time — and, for the two message enums, `kind()`
//! and a `SCHEMA` constant that the `docs/PROTOCOL.md` tables are checked
//! against. JSON is internally tagged (`"type"` field) with snake_case
//! names, `Bytes` and `ContainerId` as bare numbers; the binary payload
//! is one tag byte then the fields in table order (see [`crate::binary`]
//! for framing and primitives). The bytes of every message are pinned by
//! `tests/golden/wire_messages.golden`.

use crate::binary::{BinError, BinReader, FromBinary, ToBinary};
use crate::json::{required, FromJson, JsonError, Parser, ToJson};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::units::Bytes;

/// One row of a message table: what a [`Request`] or [`Response`] variant
/// is called on each wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageSchema {
    /// JSON `"type"` tag.
    pub wire: &'static str,
    /// Binary codec tag byte.
    pub tag: u8,
    /// Field names, in wire order.
    pub fields: &'static [&'static str],
}

/// The value of the field called `container` among a row's fields (each
/// passed twice: once to be matched by name, once to be used as the
/// binding the caller's pattern made), `None` for a row without one.
macro_rules! container_field {
    () => { None };
    (container $bound:ident $($rest:ident)*) => { Some(*$bound) };
    ($other:ident $bound:ident $($rest:ident)*) => { container_field!($($rest)*) };
}

/// Expand one wire-type table to the type and its four codec impls.
/// Three shapes: a message (`tagged enum`: tagged JSON object / tag byte
/// then fields), a value (`enum`: JSON string / tag byte) and a record
/// (`struct`, one field or more: JSON object / fields in order). A wire
/// name or tag used twice in one table is an unreachable `match` arm,
/// denied at compile time. Wire names and field names are written into
/// the JSON unescaped, so they stay plain snake_case.
///
/// The JSON writer appends constant key text and each field's own
/// encoding to the frame buffer. The decoder reads an object's members
/// in one pass, each into its field's slot (a message finds its tag
/// first, wherever it sits), and skips the rest.
macro_rules! wire {
    (
        $(#[$meta:meta])*
        tagged enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $wire:literal, $tag:literal
                $({ $( $(#[$fmeta:meta])* $field:ident: $fty:ty ),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $fty ),* })? ),*
        }

        impl $name {
            /// Every variant's wire name, binary tag and field names, in
            /// table order.
            pub const SCHEMA: &'static [MessageSchema] = &[
                $( MessageSchema {
                    wire: $wire,
                    tag: $tag,
                    fields: &[ $($( stringify!($field) ),*)? ],
                } ),*
            ];

            /// The wire name: the JSON `type` tag, and the `type` label
            /// every per-message-type metric (server handle time, client
            /// round-trip time) is keyed by.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Self::$variant $({ $($field: _),* })? => $wire ),*
                }
            }

            /// The container the message concerns: its `container` field,
            /// if its row has one. This is what a router routes by.
            pub fn container(&self) -> Option<ContainerId> {
                match self {
                    $( Self::$variant $({ $($field),* })? => {
                        $( let _ = ($($field,)*); )?
                        container_field!($($($field $field)*)?)
                    } ),*
                }
            }
        }

        impl ToJson for $name {
            fn write_json(&self, out: &mut Vec<u8>) {
                match self {
                    $( Self::$variant $({ $($field),* })? => {
                        out.extend_from_slice(concat!("{\"type\":\"", $wire, "\"").as_bytes());
                        $($(
                            out.extend_from_slice(concat!(",\"", stringify!($field), "\":").as_bytes());
                            $field.write_json(out);
                        )*)?
                    } )*
                }
                out.push(b'}');
            }
        }

        impl FromJson for $name {
            #[deny(unreachable_patterns)]
            fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
                match &*p.tag()? {
                    $( $wire => {
                        $($( let mut $field: Option<$fty> = None; )*)?
                        p.members(|p, key| match key {
                            $($( stringify!($field) => p.fill(key, &mut $field), )*)?
                            _ => p.skip(),
                        })?;
                        Ok(Self::$variant $({
                            $( $field: required($field, stringify!($field))? ),*
                        })?)
                    } )*
                    other => Err(JsonError::msg(format!(
                        concat!("unknown ", stringify!($name), " type {:?}"),
                        other
                    ))),
                }
            }
        }

        impl ToBinary for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( Self::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($( $field.encode(out); )*)?
                    } )*
                }
            }
        }

        impl FromBinary for $name {
            #[deny(unreachable_patterns)]
            fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
                match r.byte()? {
                    $( $tag => Ok(Self::$variant $({
                        $( $field: FromBinary::decode(r)? ),*
                    })?), )*
                    t => Err(BinError::msg(format!(
                        concat!("unknown ", stringify!($name), " tag {}"),
                        t
                    ))),
                }
            }
        }
    };

    (
        $(#[$meta:meta])*
        enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal, $tag:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant ),*
        }

        impl ToJson for $name {
            fn write_json(&self, out: &mut Vec<u8>) {
                let quoted = match self { $( Self::$variant => concat!("\"", $wire, "\"") ),* };
                out.extend_from_slice(quoted.as_bytes());
            }
        }

        impl FromJson for $name {
            #[deny(unreachable_patterns)]
            fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
                match &*p.str()? {
                    $( $wire => Ok(Self::$variant), )*
                    other => Err(JsonError::msg(format!(
                        concat!("unknown ", stringify!($name), " {:?}"),
                        other
                    ))),
                }
            }
        }

        impl ToBinary for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(match self { $( Self::$variant => $tag ),* });
            }
        }

        impl FromBinary for $name {
            #[deny(unreachable_patterns)]
            fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
                match r.byte()? {
                    $( $tag => Ok(Self::$variant), )*
                    t => Err(BinError::msg(format!(
                        concat!("unknown ", stringify!($name), " tag {}"),
                        t
                    ))),
                }
            }
        }
    };

    (
        $(#[$meta:meta])*
        struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident: $fty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $fty ),+
        }

        impl ToJson for $name {
            fn write_json(&self, out: &mut Vec<u8>) {
                let open = out.len();
                $(
                    out.extend_from_slice(concat!(",\"", stringify!($field), "\":").as_bytes());
                    self.$field.write_json(out);
                )+
                // The first field's comma opens the object.
                out[open] = b'{';
                out.push(b'}');
            }
        }

        impl FromJson for $name {
            fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
                $( let mut $field: Option<$fty> = None; )+
                p.members(|p, key| match key {
                    $( stringify!($field) => p.fill(key, &mut $field), )+
                    _ => p.skip(),
                })?;
                Ok($name { $( $field: required($field, stringify!($field))? ),+ })
            }
        }

        impl ToBinary for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $( self.$field.encode(out); )*
            }
        }

        impl FromBinary for $name {
            fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
                Ok($name { $( $field: FromBinary::decode(r)? ),* })
            }
        }
    };
}

wire! {
    /// Which allocation API triggered a request — used for tracing and for the
    /// Fig. 4 per-API breakdown. The scheduler treats all four identically
    /// (it only sees adjusted sizes; the wrapper does the pitch/granule math).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum ApiKind {
        /// `cudaMalloc`
        Malloc = "malloc", 0,
        /// `cudaMallocManaged`
        MallocManaged = "malloc_managed", 1,
        /// `cudaMallocPitch`
        MallocPitch = "malloc_pitch", 2,
        /// `cudaMalloc3D`
        Malloc3D = "malloc3_d", 3,
    }
}

impl ApiKind {
    /// CUDA function name, for traces.
    pub fn api_name(self) -> &'static str {
        match self {
            ApiKind::Malloc => "cudaMalloc",
            ApiKind::MallocManaged => "cudaMallocManaged",
            ApiKind::MallocPitch => "cudaMallocPitch",
            ApiKind::Malloc3D => "cudaMalloc3D",
        }
    }
}

wire! {
    /// Scheduler verdict on an allocation request.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum AllocDecision {
        /// Proceed: call the real CUDA allocation API.
        Granted = "granted", 0,
        /// The request exceeds the container's declared limit — fail the call
        /// with `cudaErrorMemoryAllocation` without touching the device.
        Rejected = "rejected", 1,
    }
}

wire! {
    /// Requests sent *to* the GPU memory scheduler.
    #[derive(Clone, Debug, PartialEq)]
    tagged enum Request {
        /// nvidia-docker: declare a container and its GPU memory limit before
        /// creation (`--nvidia-memory`, label, or the 1 GiB default).
        Register = "register", 0 {
            /// The container being created.
            container: ContainerId,
            /// Declared maximum GPU memory.
            limit: Bytes,
        },
        /// nvidia-docker: ask for the per-container directory that will be
        /// volume-mounted into the container (wrapper module + socket).
        RequestDir = "request_dir", 1 {
            /// The registered container.
            container: ContainerId,
        },
        /// Wrapper: permission to allocate `size` (already adjusted for pitch
        /// or managed granularity). The reply may be withheld — suspension.
        AllocRequest = "alloc_request", 2 {
            /// Requesting container.
            container: ContainerId,
            /// Requesting process inside the container.
            pid: u64,
            /// Adjusted allocation size.
            size: Bytes,
            /// Originating CUDA API.
            api: ApiKind,
        },
        /// Wrapper: the real CUDA allocation succeeded at `addr`.
        AllocDone = "alloc_done", 3 {
            /// Allocating container.
            container: ContainerId,
            /// Allocating process.
            pid: u64,
            /// Device address returned by CUDA.
            addr: u64,
            /// Adjusted size actually charged.
            size: Bytes,
        },
        /// Wrapper: the real CUDA allocation *failed* after a grant (device
        /// fragmentation); the scheduler must release the reservation.
        AllocFailed = "alloc_failed", 4 {
            /// Container whose allocation failed.
            container: ContainerId,
            /// Process whose allocation failed.
            pid: u64,
            /// Size that had been granted.
            size: Bytes,
        },
        /// Wrapper: `cudaFree(addr)` completed.
        Free = "free", 5 {
            /// Freeing container.
            container: ContainerId,
            /// Freeing process.
            pid: u64,
            /// Freed device address.
            addr: u64,
        },
        /// Wrapper: serve `cudaMemGetInfo` from the scheduler's books.
        MemInfo = "mem_info", 6 {
            /// Asking container.
            container: ContainerId,
            /// Asking process.
            pid: u64,
        },
        /// Wrapper: `__cudaUnregisterFatBinary` fired — the process exited;
        /// drop all accounting for this pid.
        ProcessExit = "process_exit", 7 {
            /// Container whose process exited.
            container: ContainerId,
            /// The exiting process.
            pid: u64,
        },
        /// nvidia-docker-plugin: the container's dummy volume unmounted — the
        /// container stopped; drop all accounting for it.
        ContainerClose = "container_close", 8 {
            /// The stopped container.
            container: ContainerId,
        },
        /// Liveness probe.
        Ping = "ping", 9,
        /// Ask the daemon for its current metrics as Prometheus exposition
        /// text (observability; any client may ask).
        QueryMetrics = "query_metrics", 10,
        /// Ask the daemon for its device/node topology: one entry per device
        /// with capacity and occupancy (multi-GPU and cluster topologies
        /// report several; single-GPU reports one).
        QueryTopology = "query_topology", 11,
        /// Ask where a container was placed (its home node/device) — the
        /// wrapper uses this to answer `cudaGetDeviceProperties` with the
        /// home device's capacity.
        QueryHome = "query_home", 12 {
            /// The registered container.
            container: ContainerId,
        },
        /// Ask a cluster router (or a cluster-topology daemon) for its
        /// per-node status: health, placements, and fault-tolerance
        /// counters. Non-cluster daemons answer `error`.
        QueryCluster = "query_cluster", 13,
        /// Retired: nothing moves a container between nodes any more,
        /// and every daemon — node or router — answers `error`. Kept in
        /// the kind set (and its wire bytes) until the benchmark package,
        /// which names every kind, can drop it.
        Migrate = "migrate", 14 {
            /// Read and ignored.
            container: ContainerId,
            /// Read and ignored.
            node: String,
            /// Read and ignored.
            limit: Bytes,
            /// Read and ignored.
            used: Bytes,
        },
        /// Retired like [`Request::Migrate`]: every daemon answers `error`.
        QueryMigrations = "query_migrations", 15,
    }
}

wire! {
    /// One device in a [`Response::Topology`] answer.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct TopologyDevice {
        /// Cluster node name; empty for single-host topologies.
        node: String,
        /// Device index within its node.
        device: u64,
        /// Total device capacity.
        capacity: Bytes,
        /// Memory not currently reserved on the device.
        unassigned: Bytes,
        /// Containers registered and not yet closed on the device.
        containers: u64,
        /// Redistribution policy running on the device.
        policy: String,
    }
}

wire! {
    /// One node in a [`Response::Cluster`] answer.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct ClusterNodeStatus {
        /// Node name, as configured on the router.
        node: String,
        /// Router-observed health: `"up"`, `"degraded"`, or `"down"`.
        health: String,
        /// Containers the router has placed on (and not yet closed from)
        /// the node.
        containers: u64,
        /// Requests to this node the router retried after a transport
        /// failure.
        retries: u64,
        /// Requests to this node that exceeded their deadline.
        timeouts: u64,
        /// Containers failed over to rejection because the node went down.
        failovers: u64,
    }
}

wire! {
    /// Responses sent *from* the scheduler.
    #[derive(Clone, Debug, PartialEq)]
    tagged enum Response {
        /// Generic acknowledgement.
        Ok = "ok", 0,
        /// Reply to [`Request::RequestDir`].
        Dir = "dir", 1 {
            /// Host path of the per-container volume directory.
            path: String,
        },
        /// Reply to [`Request::AllocRequest`] (possibly after suspension).
        Alloc = "alloc", 2 {
            /// The verdict.
            decision: AllocDecision,
        },
        /// Reply to [`Request::Free`].
        Freed = "freed", 3 {
            /// Bytes the scheduler had on its books for the address (zero for
            /// an unknown address).
            size: Bytes,
        },
        /// Reply to [`Request::MemInfo`] — answered from scheduler
        /// book-keeping, *not* the device (which is why the paper measured
        /// this API faster under ConVGPU).
        MemInfo = "mem_info", 4 {
            /// Free bytes from the container's viewpoint.
            free: Bytes,
            /// Total bytes from the container's viewpoint (its limit).
            total: Bytes,
        },
        /// Protocol or state error.
        Error = "error", 5 {
            /// Human-readable cause.
            message: String,
        },
        /// Reply to [`Request::Ping`].
        Pong = "pong", 6,
        /// Reply to [`Request::QueryMetrics`]: the daemon's metrics rendered
        /// as Prometheus exposition text. Carried as opaque text so the wire
        /// schema does not depend on the metrics model.
        Metrics = "metrics", 7 {
            /// Prometheus text exposition (may be multi-line; JSON escaping
            /// keeps the line framing unambiguous).
            text: String,
        },
        /// Reply to [`Request::QueryTopology`].
        Topology = "topology", 8 {
            /// Topology kind: `"single"`, `"multi-gpu"`, or `"cluster"`.
            kind: String,
            /// Every device, in node order then device index.
            devices: Vec<TopologyDevice>,
        },
        /// Reply to [`Request::QueryHome`].
        Home = "home", 9 {
            /// Home node name; empty for single-host topologies.
            node: String,
            /// Home device index within the node.
            device: u64,
        },
        /// Reply to [`Request::QueryCluster`].
        Cluster = "cluster", 10 {
            /// Placement strategy running on the router
            /// (`"spread"` / `"binpack"` / `"random"`).
            strategy: String,
            /// Every node, in router configuration order.
            nodes: Vec<ClusterNodeStatus>,
        },
    }
}

/// Correlation envelope: `id` ties a [`Response`] to its [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<T> {
    /// Correlation id, unique per connection. Clients number from 1; a
    /// request under id 0 is a report that gets no response.
    pub id: u64,
    /// The payload.
    pub body: T,
}

impl<T: ToJson> ToJson for Envelope<T> {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"id\":");
        self.id.write_json(out);
        out.extend_from_slice(b",\"body\":");
        self.body.write_json(out);
        out.push(b'}');
    }
}

impl<T: FromJson> FromJson for Envelope<T> {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        let (mut id, mut body) = (None, None);
        p.members(|p, key| match key {
            "id" => p.fill(key, &mut id),
            "body" => p.fill(key, &mut body),
            _ => p.skip(),
        })?;
        Ok(Envelope {
            id: required(id, "id")?,
            body: required(body, "body")?,
        })
    }
}

impl<T: ToBinary> ToBinary for Envelope<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.body.encode(out);
    }
}

impl<T: FromBinary> FromBinary for Envelope<T> {
    fn decode(r: &mut BinReader<'_>) -> Result<Self, BinError> {
        Ok(Envelope {
            id: FromBinary::decode(r)?,
            body: FromBinary::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_format_is_snake_case_tagged() {
        let json = Request::Ping.to_json_string();
        assert_eq!(json, r#"{"type":"ping"}"#);
        let json = Request::AllocRequest {
            container: ContainerId(1),
            pid: 2,
            size: Bytes::new(3),
            api: ApiKind::Malloc,
        }
        .to_json_string();
        assert!(json.contains(r#""type":"alloc_request""#), "{json}");
        assert!(json.contains(r#""api":"malloc""#), "{json}");
        // Numeric newtypes stay bare numbers on the wire.
        assert!(json.contains(r#""container":1"#), "{json}");
        assert!(json.contains(r#""size":3"#), "{json}");
    }

    /// `docs/PROTOCOL.md` is checked against the tables above: its two
    /// binary tag tables must be exactly what `SCHEMA` renders to (a row
    /// missing, stale or extra fails), and its requests table must list
    /// each request with its fields.
    #[test]
    fn protocol_md_matches_the_message_tables() {
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/PROTOCOL.md"
        ))
        .expect("docs/PROTOCOL.md");
        for (side, schema) in [("request", Request::SCHEMA), ("response", Response::SCHEMA)] {
            let mut table = format!("| {side} type | binary tag |\n|---|---|\n");
            for m in schema {
                table += &format!("| `{}` | {} |\n", m.wire, m.tag);
            }
            assert!(
                doc.contains(&format!("{table}\n")),
                "docs/PROTOCOL.md, \"Binary codec tags\": the {side} table must read\n\n{table}"
            );
        }
        for m in Request::SCHEMA {
            let fields: Vec<String> = m.fields.iter().map(|f| format!("`{f}`")).collect();
            let row = match fields.as_slice() {
                [] => format!("| `{}` | — |", m.wire),
                fields => format!("| `{}` | {} |", m.wire, fields.join(", ")),
            };
            assert!(
                doc.contains(&row),
                "docs/PROTOCOL.md, \"Requests\": expected a row starting\n\n{row}"
            );
        }
    }

    #[test]
    fn api_names_match_cuda() {
        assert_eq!(ApiKind::Malloc.api_name(), "cudaMalloc");
        assert_eq!(ApiKind::MallocPitch.api_name(), "cudaMallocPitch");
        assert_eq!(ApiKind::Malloc3D.api_name(), "cudaMalloc3D");
        assert_eq!(ApiKind::MallocManaged.api_name(), "cudaMallocManaged");
    }
}
