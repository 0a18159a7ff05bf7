//! Wire-protocol property tests and socket stress: arbitrary messages
//! survive both codecs, the bytes of every message are pinned by a golden
//! file, and the live server multiplexes many concurrent clients without
//! losing or misrouting replies.
//!
//! Property tests run on the deterministic harness in
//! `convgpu_audit::prop`.

use convgpu::gpu::api::CudaApi;
use convgpu::gpu::device::GpuDevice;
use convgpu::gpu::error::CudaError;
use convgpu::gpu::latency::LatencyModel;
use convgpu::gpu::runtime::RawCudaRuntime;
use convgpu::ipc::binary::{
    encode_frame, encode_with, read_auto, read_binary, FromBinary, ToBinary, WireCodec, MAGIC,
};
use convgpu::ipc::client::{ClientObs, SchedulerClient};
use convgpu::ipc::codec::{read_json, write_json};
use convgpu::ipc::endpoint::SchedulerEndpoint;
use convgpu::ipc::json::{FromJson, ToJson};
use convgpu::ipc::message::{
    AllocDecision, ApiKind, ClusterNodeStatus, Envelope, MessageSchema, Request, Response,
    TopologyDevice,
};
use convgpu::ipc::server::{ServerObs, SocketServer};
use convgpu::ipc::transport::{Conn, EndpointAddr};
use convgpu::obs::metrics::Snapshot;
use convgpu::obs::Registry;
use convgpu::scheduler::core::{Scheduler, SchedulerConfig};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::clock::RealClock;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::pool::MAX_IDLE_THREADS;
use convgpu::sim::rng::DetRng;
use convgpu::sim::units::Bytes;
use convgpu::wrapper::WrapperModule;
use convgpu_audit::prop;
use convgpu_core::handler::ServiceHandler;
use convgpu_core::service::SchedulerService;
use std::collections::BTreeSet;
use std::io::BufReader;
use std::sync::Arc;

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

fn gen_api(rng: &mut DetRng) -> ApiKind {
    [
        ApiKind::Malloc,
        ApiKind::MallocManaged,
        ApiKind::MallocPitch,
        ApiKind::Malloc3D,
    ][rng.index(4)]
}

fn wire_names(schema: &[MessageSchema]) -> BTreeSet<&'static str> {
    schema.iter().map(|m| m.wire).collect()
}

/// Read `wire` the way client and server do — `read_auto`, codec detected
/// from the first byte — and check it is `want`, sent in `codec`.
fn check_decodes_to<T>(wire: &[u8], codec: WireCodec, want: &Envelope<T>) -> Result<(), String>
where
    T: FromJson + FromBinary + PartialEq + std::fmt::Debug,
{
    let mut r = BufReader::new(wire);
    let (got, seen): (Envelope<T>, _) = read_auto(&mut r)
        .map_err(|e| format!("{} read: {e}", codec.label()))?
        .ok_or("unexpected EOF")?;
    ensure!(seen == codec, "{codec:?} bytes detected as {seen:?}");
    ensure!(&got == want, "{} decoded {got:?}", codec.label());
    Ok(())
}

/// Strings with everything the JSON writer escapes and a multi-byte char.
fn gen_text(rng: &mut DetRng) -> String {
    [
        "",
        "n0",
        "node-1",
        "a \"q\" \\ b",
        "line\nbreak\ttab",
        "π≈3.14",
    ][rng.index(6)]
    .to_string()
}

/// An arbitrary request of the variant in row `row` of `Request::SCHEMA`.
fn gen_request_of(row: usize, rng: &mut DetRng) -> Request {
    let container = ContainerId(rng.next_u64());
    let pid = rng.next_u64();
    match row {
        0 => Request::Register {
            container,
            limit: Bytes::new(rng.next_u64()),
        },
        1 => Request::RequestDir { container },
        2 => Request::AllocRequest {
            container,
            pid,
            size: Bytes::new(rng.next_u64()),
            api: gen_api(rng),
        },
        3 => Request::AllocDone {
            container,
            pid,
            addr: rng.next_u64(),
            size: Bytes::new(rng.next_u64()),
        },
        4 => Request::AllocFailed {
            container,
            pid,
            size: Bytes::new(rng.next_u64()),
        },
        5 => Request::Free {
            container,
            pid,
            addr: rng.next_u64(),
        },
        6 => Request::MemInfo { container, pid },
        7 => Request::ProcessExit { container, pid },
        8 => Request::ContainerClose { container },
        9 => Request::Ping,
        10 => Request::QueryMetrics,
        11 => Request::QueryTopology,
        12 => Request::QueryHome { container },
        13 => Request::QueryCluster,
        14 => Request::Migrate {
            container,
            node: gen_text(rng),
            limit: Bytes::new(rng.next_u64()),
            used: Bytes::new(rng.next_u64()),
        },
        _ => Request::QueryMigrations,
    }
}

fn gen_request(rng: &mut DetRng) -> Request {
    gen_request_of(rng.index(Request::SCHEMA.len()), rng)
}

/// An arbitrary response of the variant in row `row` of `Response::SCHEMA`.
fn gen_response_of(row: usize, rng: &mut DetRng) -> Response {
    match row {
        0 => Response::Ok,
        1 => Response::Dir {
            path: gen_text(rng),
        },
        2 => Response::Alloc {
            decision: [AllocDecision::Granted, AllocDecision::Rejected][rng.index(2)],
        },
        3 => Response::Freed {
            size: Bytes::new(rng.next_u64()),
        },
        4 => Response::MemInfo {
            free: Bytes::new(rng.next_u64()),
            total: Bytes::new(rng.next_u64()),
        },
        5 => Response::Error {
            message: gen_text(rng),
        },
        6 => Response::Pong,
        7 => Response::Metrics {
            text: gen_text(rng),
        },
        8 => Response::Topology {
            kind: gen_text(rng),
            devices: (0..rng.range_inclusive(0, 4))
                .map(|i| TopologyDevice {
                    node: gen_text(rng),
                    device: i,
                    capacity: Bytes::new(rng.next_u64()),
                    unassigned: Bytes::new(rng.next_u64()),
                    containers: rng.next_u64(),
                    policy: gen_text(rng),
                })
                .collect(),
        },
        9 => Response::Home {
            node: gen_text(rng),
            device: rng.next_u64(),
        },
        _ => Response::Cluster {
            strategy: gen_text(rng),
            nodes: (0..rng.range_inclusive(0, 5))
                .map(|_| ClusterNodeStatus {
                    node: gen_text(rng),
                    health: gen_text(rng),
                    containers: rng.next_u64(),
                    retries: rng.next_u64(),
                    timeouts: rng.next_u64(),
                    failovers: rng.next_u64(),
                })
                .collect(),
        },
    }
}

fn gen_response(rng: &mut DetRng) -> Response {
    gen_response_of(rng.index(Response::SCHEMA.len()), rng)
}

/// The generators have one arm per table row: a message added to
/// `message.rs` but not to them fails here.
#[test]
fn generators_cover_the_schema() {
    let mut rng = DetRng::seed_from_u64(1);
    for (row, m) in Request::SCHEMA.iter().enumerate() {
        assert_eq!(gen_request_of(row, &mut rng).kind(), m.wire);
    }
    for (row, m) in Response::SCHEMA.iter().enumerate() {
        assert_eq!(gen_response_of(row, &mut rng).kind(), m.wire);
    }
}

fn round_trip_both_codecs<T>(env: &Envelope<T>) -> Result<(), String>
where
    T: ToJson + FromJson + ToBinary + FromBinary + PartialEq + std::fmt::Debug,
{
    for codec in [WireCodec::Json, WireCodec::Binary] {
        check_decodes_to(&encode_with(env, codec), codec, env)?;
    }
    Ok(())
}

/// Any message, request or response, survives both codecs.
#[test]
fn any_message_round_trips_through_both_codecs() {
    prop::cases("any_message_round_trips_through_both_codecs").run(|rng| {
        let id = rng.next_u64();
        round_trip_both_codecs(&Envelope {
            id,
            body: gen_request(rng),
        })?;
        round_trip_both_codecs(&Envelope {
            id,
            body: gen_response(rng),
        })
    });
}

/// A truncated binary frame (header promises more payload than ever
/// arrives) and a corrupted payload must error out of the reader, never
/// hang it or panic.
#[test]
fn truncated_and_corrupt_binary_frames_error_cleanly() {
    let env = Envelope {
        id: 7,
        body: Request::QueryCluster,
    };
    let frame = encode_frame(&env);
    // Every proper prefix is a truncation: EOF mid-frame must error.
    for cut in 1..frame.len() {
        let mut r = BufReader::new(&frame[..cut]);
        let got = read_binary::<Envelope<Request>, _>(&mut r);
        assert!(
            got.is_err(),
            "truncation at {cut}/{} was silently accepted",
            frame.len()
        );
    }
    // A frame whose declared length exceeds the cap is rejected before
    // any allocation.
    let mut huge = vec![MAGIC];
    huge.extend_from_slice(&(u32::MAX).to_le_bytes());
    let mut r = BufReader::new(huge.as_slice());
    assert!(read_binary::<Envelope<Request>, _>(&mut r).is_err());
    // A bad magic byte is rejected immediately.
    let mut r = BufReader::new(&b"\xFF\x00\x00\x00\x00"[..]);
    assert!(read_binary::<Envelope<Request>, _>(&mut r).is_err());
    // Flipping payload bytes must never round-trip into the original.
    for i in 5..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 0x5A;
        let mut r = BufReader::new(bad.as_slice());
        match read_binary::<Envelope<Request>, _>(&mut r) {
            Err(_) => {}
            Ok(got) => assert_ne!(
                got,
                Some(env.clone()),
                "corrupted byte {i} decoded as the original"
            ),
        }
    }
}

/// One sample of every request variant, with every `ApiKind` and both
/// shapes of `migrate`.
fn sample_requests() -> Vec<Request> {
    let container = ContainerId(3);
    let pid = 42;
    let mut reqs = vec![
        Request::Register {
            container,
            limit: Bytes::mib(512),
        },
        Request::RequestDir { container },
    ];
    reqs.extend(
        [
            ApiKind::Malloc,
            ApiKind::MallocManaged,
            ApiKind::MallocPitch,
            ApiKind::Malloc3D,
        ]
        .map(|api| Request::AllocRequest {
            container,
            pid,
            size: Bytes::mib(128),
            api,
        }),
    );
    reqs.extend([
        Request::AllocDone {
            container,
            pid,
            addr: 0x7000_0000,
            size: Bytes::mib(128),
        },
        Request::AllocFailed {
            container,
            pid,
            size: Bytes::mib(128),
        },
        Request::Free {
            container,
            pid,
            addr: u64::MAX,
        },
        Request::MemInfo { container, pid },
        Request::ProcessExit { container, pid },
        Request::ContainerClose { container },
        Request::Ping,
        Request::QueryMetrics,
        Request::QueryTopology,
        Request::QueryHome { container },
        Request::QueryCluster,
        Request::Migrate {
            container,
            node: String::new(),
            limit: Bytes::mib(512),
            used: Bytes::mib(128),
        },
        Request::Migrate {
            container: ContainerId(0),
            node: "node-1".into(),
            limit: Bytes::ZERO,
            used: Bytes::ZERO,
        },
        Request::QueryMigrations,
    ]);
    reqs
}

/// One sample of every response variant, with both decisions, every
/// record type, and each list both filled and empty.
fn sample_responses() -> Vec<Response> {
    vec![
        Response::Ok,
        Response::Dir {
            path: "/var/lib/convgpu/cnt-0003".into(),
        },
        Response::Alloc {
            decision: AllocDecision::Granted,
        },
        Response::Alloc {
            decision: AllocDecision::Rejected,
        },
        Response::Freed {
            size: Bytes::mib(64),
        },
        Response::MemInfo {
            free: Bytes::mib(100),
            total: Bytes::mib(512),
        },
        Response::Error {
            message: "unregistered container — π≈3.14".into(),
        },
        Response::Pong,
        Response::Metrics {
            text: "# TYPE convgpu_x counter\nconvgpu_x{type=\"ping\"} 3\n".into(),
        },
        Response::Topology {
            kind: "cluster".into(),
            devices: vec![
                TopologyDevice {
                    node: "node-0".into(),
                    device: 0,
                    capacity: Bytes::gib(5),
                    unassigned: Bytes::mib(1234),
                    containers: 2,
                    policy: "fifo".into(),
                },
                TopologyDevice {
                    node: "node-1".into(),
                    device: 1,
                    capacity: Bytes::gib(16),
                    unassigned: Bytes::gib(16),
                    containers: 0,
                    policy: "random".into(),
                },
            ],
        },
        Response::Topology {
            kind: "single".into(),
            devices: vec![],
        },
        Response::Home {
            node: String::new(),
            device: 1,
        },
        Response::Cluster {
            strategy: "spread".into(),
            nodes: vec![
                ClusterNodeStatus {
                    node: "node-0".into(),
                    health: "up".into(),
                    containers: 3,
                    retries: 0,
                    timeouts: 0,
                    failovers: 0,
                },
                ClusterNodeStatus {
                    node: "node-1".into(),
                    health: "down".into(),
                    containers: 0,
                    retries: 5,
                    timeouts: 2,
                    failovers: 3,
                },
            ],
        },
        Response::Cluster {
            strategy: "random".into(),
            nodes: vec![],
        },
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// Three golden lines per sample: what it is, its JSON line, and its
/// binary frame in hex. Ids start past `u64::MAX / 2` so the envelope's
/// varint is at full width.
fn render_wire_golden<T: ToJson + ToBinary + Clone + std::fmt::Debug>(
    side: &str,
    samples: &[T],
    out: &mut String,
) -> Vec<Envelope<T>> {
    samples
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let env = Envelope {
                id: u64::MAX / 2 + i as u64 * 7,
                body: body.clone(),
            };
            let json = encode_with(&env, WireCodec::Json);
            let json = std::str::from_utf8(&json).expect("JSON lines are UTF-8");
            let frame = encode_with(&env, WireCodec::Binary);
            let variant = format!("{body:?}");
            let variant = variant.split(|c: char| !c.is_alphanumeric()).next();
            out.push_str(&format!(
                "{side} {}\n{json}{}\n",
                variant.expect("variant name"),
                hex(&frame)
            ));
            env
        })
        .collect()
}

/// Decode every line the golden file holds — bytes written by the
/// encoders the file was blessed with — and compare with the sample.
fn decode_wire_golden<'a, T>(lines: &mut impl Iterator<Item = &'a str>, samples: &[Envelope<T>])
where
    T: FromJson + FromBinary + PartialEq + std::fmt::Debug,
{
    for want in samples {
        let label = lines.next().expect("label line");
        let json = format!("{}\n", lines.next().expect("json line"));
        let frame = unhex(lines.next().expect("hex line"));
        for (wire, codec) in [
            (json.as_bytes(), WireCodec::Json),
            (frame.as_slice(), WireCodec::Binary),
        ] {
            check_decodes_to(wire, codec, want).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// The wire bytes of every message, pinned: `tests/golden/wire_messages.golden`
/// holds the JSON line and binary frame of one sample per variant (helper
/// types ride inside the messages that carry them). Encoders must
/// reproduce the file byte for byte and decoders must read the file's own
/// bytes back to the samples. Re-bless (a wire format change) with
/// `UPDATE_GOLDEN=1 cargo test --test protocol_roundtrip`.
#[test]
fn wire_bytes_match_the_golden_file() {
    let mut got = String::new();
    let requests = render_wire_golden("request", &sample_requests(), &mut got);
    let responses = render_wire_golden("response", &sample_responses(), &mut got);
    // A message added to the table needs a sample (and a re-bless).
    let sampled: BTreeSet<_> = requests.iter().map(|e| e.body.kind()).collect();
    assert_eq!(sampled, wire_names(Request::SCHEMA));
    let sampled: BTreeSet<_> = responses.iter().map(|e| e.body.kind()).collect();
    assert_eq!(sampled, wire_names(Response::SCHEMA));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/wire_messages.golden"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "golden file missing — bless with UPDATE_GOLDEN=1 cargo test --test protocol_roundtrip",
    );
    assert_eq!(
        got, want,
        "wire bytes drifted from the golden file; if intended, re-bless \
         with UPDATE_GOLDEN=1 cargo test --test protocol_roundtrip"
    );
    let mut lines = want.lines();
    decode_wire_golden(&mut lines, &requests);
    decode_wire_golden(&mut lines, &responses);
    assert_eq!(lines.next(), None, "golden file has trailing lines");
}

/// One hand-written JSON line, as the golden file shows it: printable
/// ASCII as itself, every other byte as `\xNN`.
fn show_line(line: &[u8]) -> String {
    line.iter()
        .map(|&b| match b {
            0x20..=0x7e => char::from(b).to_string(),
            _ => format!("\\x{b:02x}"),
        })
        .collect()
}

/// What the JSON decoder makes of `line`, read as one `\n`-terminated
/// frame: `ok <value>` or `err`.
fn json_decode_outcome<T: FromJson + std::fmt::Debug>(line: &[u8]) -> String {
    let wire = [line, b"\n"].concat();
    match read_json::<Envelope<T>, _>(&mut BufReader::new(wire.as_slice())) {
        Ok(Some(env)) => format!("ok {env:?}"),
        Ok(None) => "eof".into(),
        Err(_) => "err".into(),
    }
}

/// `n` arrays nested inside each other.
fn nested_arrays(n: usize) -> String {
    "[".repeat(n) + &"]".repeat(n)
}

/// Hand-written request lines: the tag anywhere, keys in any order,
/// whitespace, unknown keys, duplicates, escapes, number forms, trailing
/// bytes, truncation, bad UTF-8 and deep nesting.
fn json_decode_request_cases() -> Vec<Vec<u8>> {
    let lines: &[&[u8]] = &[
        // Key order and where the tag sits.
        br#"{"id":1,"body":{"type":"ping"}}"#,
        br#"{"body":{"type":"ping"},"id":1}"#,
        br#"{"id":2,"body":{"container":3,"type":"register","limit":1048576}}"#,
        br#"{"id":2,"body":{"limit":1048576,"container":3,"type":"register"}}"#,
        br#"{"body":{"api":"malloc_pitch","size":4096,"pid":7,"container":3,"type":"alloc_request"},"id":3}"#,
        // Whitespace everywhere JSON allows it (a line holds no `\n`).
        br#" {"id" :4 , "body":{ "type" : "alloc_done" ,"container":3,"pid":7,"addr":28672,"size":4096 } } "#,
        b"\t{\t\"id\"\t:\t5,\r\"body\"\r:\r{\"type\":\"free\" ,\t\"container\" : 3 ,\"pid\":7,\"addr\":28672}\t}\r",
        br#"{"id":1,"body":{ "type":"query_metrics" } }"#,
        b"",
        b"   ",
        b"{ }",
        // Unknown keys: ignored, but still JSON.
        br#"{"id":6,"trace":{"parent":[1,2.5,-3e-2,{"x":null}],"flags":[true,false]},"body":{"type":"mem_info","container":3,"extra":"x","pid":7,"nested":{"a":{"b":{"c":[]}}}}}"#,
        br#"{"id":6,"body":{"type":"ping","container":3,"pid":"not a pid"}}"#,
        br#"{"id":6,"junk":[1,,2],"body":{"type":"ping"}}"#,
        br#"{"id":6,"body":{"type":"ping","junk":tru}}"#,
        br#"{"id":6,"body":{"type":"ping","junk":"\q"}}"#,
        br#"{"id":6,"body":{"type":"ping"},"junk":01.5e+3}"#,
        br#"{"id":1,"body":{"type":"ping"},"a":true,"b":false,"c":null,"d":"","":{}}"#,
        br#"{"id":1,"body":{"type":"ping"},"a":nul}"#,
        br#"{"id":1,"body":{"type":"ping"},"a":truex}"#,
        br#"{"id":1,"body":{"type":"ping"},"big":18446744073709551616,"neg":-9223372036854775809,"exp":1E400}"#,
        // Duplicate keys: the first one counts.
        br#"{"id":7,"id":8,"body":{"type":"ping"}}"#,
        br#"{"id":7,"id":"eight","body":{"type":"ping"}}"#,
        br#"{"id":"seven","id":8,"body":{"type":"ping"}}"#,
        br#"{"id":7,"body":{"type":"query_home","container":1,"container":2}}"#,
        br#"{"id":7,"body":{"type":"ping","type":"query_metrics"}}"#,
        br#"{"id":7,"body":{"container":1,"type":"query_home","type":"nonsense"}}"#,
        br#"{"id":7,"body":{"type":1,"type":"ping"}}"#,
        br#"{"id":7,"body":{"type":"ping"},"body":{"type":"query_metrics"}}"#,
        br#"{"id":7,"body":{"type":"ping"},"body":{"type":"warp_drive"}}"#,
        br#"{"id":7,"body":{"type":"ping"},"body":[1,]}"#,
        // Escapes in keys and values.
        br#"{"\u0069d":9,"b\u006fdy":{"\u0074ype":"p\u0069ng"}}"#,
        br#"{"id":9,"\u0069d":10,"body":{"type":"ping"}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"n\u00f6de \"q\" \\ \/ \b\f\n\r\t","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\ud83d\ude00 \u00e9 \u4F8B","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\ud83d","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\ud83d\u0041","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\ude00","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\u+041","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\u00e","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\U0041","limit":0,"used":0}}"#,
        br#"{"id":9,"body":{"type":"migrate","container":0,"node":"\u"#,
        // Number forms.
        br#"{"id":007,"body":{"type":"query_home","container":00}}"#,
        br#"{"id":1e2,"body":{"type":"ping"}}"#,
        br#"{"id":1.0,"body":{"type":"ping"}}"#,
        br#"{"id":-1,"body":{"type":"ping"}}"#,
        br#"{"id":-0,"body":{"type":"ping"}}"#,
        br#"{"id":+1,"body":{"type":"ping"}}"#,
        br#"{"id":0x10,"body":{"type":"ping"}}"#,
        br#"{"id":1-2,"body":{"type":"ping"}}"#,
        br#"{"id":1 2,"body":{"type":"ping"}}"#,
        br#"{"id":"1","body":{"type":"ping"}}"#,
        br#"{"id":null,"body":{"type":"ping"}}"#,
        br#"{"id":18446744073709551615,"body":{"type":"free","container":18446744073709551615,"pid":0,"addr":18446744073709551615}}"#,
        br#"{"id":18446744073709551616,"body":{"type":"ping"}}"#,
        br#"{"id":1,"body":{"type":"free","container":1,"pid":0,"addr":18446744073709551616}}"#,
        br#"{"id":1,"body":{"type":"free","container":1,"pid":0,"addr":00000000000000000000000000042}}"#,
        // Value enums are exact strings.
        br#"{"id":1,"body":{"type":"alloc_request","container":1,"pid":2,"size":3,"api":"malloc3_d"}}"#,
        br#"{"id":1,"body":{"type":"alloc_request","container":1,"pid":2,"size":3,"api":"Malloc"}}"#,
        br#"{"id":1,"body":{"type":"alloc_request","container":1,"pid":2,"size":3,"api":1}}"#,
        // Trailing bytes, truncation, broken punctuation.
        br#"{"id":1,"body":{"type":"ping"}}   "#,
        br#"{"id":1,"body":{"type":"ping"}} x"#,
        br#"{"id":1,"body":{"type":"ping"}}}"#,
        br#"{"id":1,"body":{"type":"ping"}}{"id":2,"body":{"type":"ping"}}"#,
        b"{\"id\":1,\"body\":{\"type\":\"ping\"}}\x00",
        br#"{"id":1,"body":{"type":"ping"}"#,
        br#"{"id":1,"body":{"type":"pi"#,
        br#"{"id":1,"body":"#,
        br#"{"id":1,"body":{"type":"ping"},}"#,
        br#"{"id":1 "body":{"type":"ping"}}"#,
        br#"{"id":1,"body"{"type":"ping"}}"#,
        br#"{,"id":1,"body":{"type":"ping"}}"#,
        // UTF-8: valid multi-byte text, then bytes that are not UTF-8.
        "{\"id\":1,\"body\":{\"type\":\"migrate\",\"container\":0,\"node\":\"π≈例😀\",\"limit\":0,\"used\":0}}".as_bytes(),
        b"{\"id\":1,\"body\":{\"type\":\"migrate\",\"container\":0,\"node\":\"\xff\",\"limit\":0,\"used\":0}}",
        b"{\"id\":1,\"body\":{\"type\":\"ping\"},\"junk\":\"\xc0\x80\"}",
        b"{\"i\xe2\x28d\":1,\"body\":{\"type\":\"ping\"}}",
        b"{\"id\":1,\"body\":{\"type\":\"ping\"},\"junk\":\"\xed\xa0\x80\"}",
        b"\xef\xbb\xbf{\"id\":1,\"body\":{\"type\":\"ping\"}}",
        b"{\"id\":1,\"body\":{\"type\":\"migrate\",\"container\":0,\"node\":\"a\tb\",\"limit\":0,\"used\":0}}",
        b"{\"id\":1,\"body\":{\"type\":\"migrate\",\"container\":0,\"node\":\"a\x7fb\",\"limit\":0,\"used\":0}}",
        // Missing fields and wrong shapes.
        br#"{"id":1}"#,
        br#"{"body":{"type":"ping"}}"#,
        br#"{"id":1,"body":{"type":"register","container":1}}"#,
        br#"{"id":1,"body":{}}"#,
        br#"{"id":1,"body":{"container":1}}"#,
        br#"{"id":1,"body":{"type":"warp_drive"}}"#,
        br#"{"id":1,"body":{"Type":"ping"}}"#,
        br#"{"id":1,"body":"ping"}"#,
        br#"{"id":1,"body":["ping"]}"#,
        br#"{"id":1,"body":null}"#,
        br#"[{"id":1,"body":{"type":"ping"}}]"#,
        br#"{"id":1,"body":{"type":"migrate","container":1,"node":null,"limit":0,"used":0}}"#,
        br#"{"id":1,"body":{"type":"migrate","container":1,"node":7,"limit":0,"used":0}}"#,
    ];
    let mut cases: Vec<Vec<u8>> = lines.iter().map(|l| l.to_vec()).collect();
    // Nesting inside an unknown key: an envelope member sits at depth 1
    // and a body member at depth 2; nothing may nest past depth 64.
    for n in [64, 65] {
        cases.push(
            format!(
                r#"{{"id":1,"junk":{},"body":{{"type":"ping"}}}}"#,
                nested_arrays(n)
            )
            .into(),
        );
    }
    for n in [63, 64] {
        cases.push(
            format!(
                r#"{{"id":1,"body":{{"type":"ping","junk":{}}}}}"#,
                nested_arrays(n)
            )
            .into(),
        );
    }
    let objects = r#"{"a":"#.repeat(70) + "1" + &"}".repeat(70);
    cases.push(format!(r#"{{"id":1,"body":{{"type":"ping"}},"junk":{objects}}}"#).into());
    cases
}

/// Hand-written response lines: value enums, records inside lists (their
/// keys shuffled, unknown and duplicated), escapes the writer emits, and
/// a request tag where a response belongs.
fn json_decode_response_cases() -> Vec<Vec<u8>> {
    let lines: &[&[u8]] = &[
        br#"{"id":1,"body":{"type":"ok"}}"#,
        br#"{"id":2,"body":{"decision" : "granted","type":"alloc"}}"#,
        br#"{"id":2,"body":{"type":"alloc","decision":"GRANTED"}}"#,
        br#"{"id":2,"body":{"type":"alloc","decision":"granted","decision":7}}"#,
        br#"{"id":3,"body":{"devices":[{"policy":"fifo","node":"","zzz":[1,{"q":null}],"device":0,"capacity":1024,"unassigned":512,"containers":2},{"node":"n1","device":1,"capacity":2048,"unassigned":0,"containers":0,"policy":"best_fit","node":"ignored"}],"type":"topology","kind":"multi-gpu"}}"#,
        br#"{"id":3,"body":{"type":"topology","kind":"single","devices":[ ]}}"#,
        br#"{"id":3,"body":{"type":"topology","kind":"single","devices":[{"node":"","device":0,"capacity":1,"unassigned":1,"containers":0}]}}"#,
        br#"{"id":3,"body":{"type":"topology","kind":"single","devices":{}}}"#,
        br#"{"id":3,"body":{"type":"topology","kind":"single","devices":null}}"#,
        br#"{"id":3,"body":{"type":"topology","kind":"single","devices":[1]}}"#,
        br#"{"id":3,"body":{"type":"topology","kind":"single","devices":[{"node":"","device":0,"capacity":1,"unassigned":1,"containers":0,"policy":"fifo"},]}}"#,
        br#"{"id":4,"body":{"type":"error","message":"line\nbreak \"q\" \u00e9\u0000"}}"#,
        br#"{"id":4,"body":{"type":"metrics","text":"\u001f\u007f"}}"#,
        br#"{"id":4,"body":{"nodes":[{"failovers":3,"timeouts":2,"retries":1,"containers":0,"health":"down","node":"n1"}],"strategy":"spread","type":"cluster"}}"#,
        br#"{"id":5,"body":{"type":"home","device":3,"node":"n\u0030"}}"#,
        br#"{"id":5,"body":{"type":"freed","size":1.5}}"#,
        br#"{"id":5,"body":{"type":"pong"},"id":6}"#,
        br#"{"id":5,"body":{"type":"ping"}}"#,
        br#"{"id":5,"body":{"type":"mem_info","free":1,"total":2}}"#,
    ];
    let mut cases: Vec<Vec<u8>> = lines.iter().map(|l| l.to_vec()).collect();
    // A record's members sit at depth 4 (envelope, body, list, record).
    for n in [61, 62] {
        cases.push(
            format!(
                r#"{{"id":3,"body":{{"type":"topology","kind":"single","devices":[{{"node":"","device":0,"capacity":1,"unassigned":1,"containers":0,"policy":"fifo","junk":{}}}]}}}}"#,
                nested_arrays(n)
            )
            .into(),
        );
    }
    cases
}

/// The JSON decoder's accept set, pinned:
/// `tests/golden/json_decode.golden` holds each hand-written line above
/// with what it decodes to (`ok <value>`) or `err`. A decoder rewrite
/// must accept and reject exactly these lines. Re-bless (an intended
/// change) with `UPDATE_GOLDEN=1 cargo test --test protocol_roundtrip`.
#[test]
fn json_decode_accept_set_matches_the_golden_file() {
    let mut got = String::new();
    for line in json_decode_request_cases() {
        let outcome = json_decode_outcome::<Request>(&line);
        got += &format!("request {}\n  {outcome}\n", show_line(&line));
    }
    for line in json_decode_response_cases() {
        let outcome = json_decode_outcome::<Response>(&line);
        got += &format!("response {}\n  {outcome}\n", show_line(&line));
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/json_decode.golden"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "golden file missing — bless with UPDATE_GOLDEN=1 cargo test --test protocol_roundtrip",
    );
    assert_eq!(
        got, want,
        "the JSON decoder's accept set drifted from the golden file; if \
         intended, re-bless with UPDATE_GOLDEN=1 cargo test --test protocol_roundtrip"
    );
}

/// Batches of envelopes on one stream arrive intact and in order.
#[test]
fn pipelined_envelopes_preserve_order() {
    prop::cases("pipelined_envelopes_preserve_order").run(|rng| {
        let n = rng.range_inclusive(1, 39) as usize;
        let reqs: Vec<Request> = (0..n).map(|_| gen_request(rng)).collect();
        let mut buf = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            write_json(
                &mut buf,
                &Envelope {
                    id: i as u64,
                    body: req.clone(),
                },
            )
            .map_err(|e| format!("write: {e}"))?;
        }
        let mut r = BufReader::new(buf.as_slice());
        for (i, req) in reqs.iter().enumerate() {
            let env: Envelope<Request> = read_json(&mut r)
                .map_err(|e| format!("read: {e}"))?
                .ok_or("unexpected EOF")?;
            ensure!(env.id == i as u64, "id reordered at {i}");
            ensure!(&env.body == req, "body changed at {i}");
        }
        let eof =
            read_json::<Envelope<Request>, _>(&mut r).map_err(|e| format!("eof read: {e}"))?;
        ensure!(eof.is_none(), "trailing data after the batch");
        Ok(())
    });
}

/// The live-socket suites run as a transport matrix: `CONVGPU_TRANSPORT=tcp`
/// rebinds every server in this file onto a TCP loopback endpoint (port
/// chosen by the kernel); the default stays UNIX sockets.
fn test_endpoint(dir: &std::path::Path, name: &str) -> EndpointAddr {
    match std::env::var("CONVGPU_TRANSPORT").as_deref() {
        Ok("tcp") => EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
        _ => EndpointAddr::from(dir.join(name)),
    }
}

fn live_service(tag: &str, capacity_mib: u64) -> (SocketServer, Arc<SchedulerService>) {
    let dir =
        std::env::temp_dir().join(format!("convgpu-itest-proto-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let svc = Arc::new(SchedulerService::new(
        Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(capacity_mib)),
            PolicyKind::BestFit.build(0),
        ),
        RealClock::handle(),
        dir.clone(),
    ));
    // The server records into the service's registry, so a test reads
    // the daemon's request and refusal counts beside its books.
    let server = SocketServer::bind_endpoint_with_obs(
        &test_endpoint(&dir, "sched.sock"),
        Arc::new(ServiceHandler::new(Arc::clone(&svc))),
        Some(ServerObs {
            registry: Arc::clone(&svc.obs().registry),
            clock: RealClock::handle(),
        }),
    )
    .unwrap();
    (server, svc)
}

#[test]
fn many_concurrent_clients_are_served_correctly() {
    let (server, svc) = live_service("stress", 64 * 1024);
    let endpoint = server.endpoint().clone();
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let endpoint = endpoint.clone();
        handles.push(std::thread::spawn(move || {
            let client = SchedulerClient::connect_endpoint(&endpoint).unwrap();
            let container = ContainerId(i + 1);
            client.register(container, Bytes::mib(1024)).unwrap();
            for round in 0..20u64 {
                let d = client
                    .request_alloc(container, i, Bytes::mib(10), ApiKind::Malloc)
                    .unwrap();
                assert_eq!(d, AllocDecision::Granted);
                let addr = (i + 1) * 1_000_000 + round;
                client
                    .alloc_done(container, i, addr, Bytes::mib(10))
                    .unwrap();
                assert_eq!(client.free(container, i, addr).unwrap(), Bytes::mib(10));
            }
            client.ping().unwrap();
            client.container_close(container).unwrap();
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    svc.with_scheduler(|s| {
        s.check_invariants().unwrap();
        assert_eq!(s.total_assigned(), Bytes::ZERO);
        // 8 containers × 20 grants each.
        let grants: u64 = s.containers().map(|r| r.granted_allocs).sum();
        assert_eq!(grants, 160);
    });
    server.shutdown();
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A client owns no thread: the caller that waits for a reply reads the
/// socket itself. Interleaving `QueryMetrics` round trips with abrupt
/// disconnects must neither drop a response silently (every issued
/// request gets its answer) nor leak server threads: a connection's
/// reader parks for the next connection when its client leaves (at most
/// `MAX_IDLE_THREADS` stay parked), and the parked ones end with the
/// server.
#[test]
fn query_metrics_interleaved_with_disconnects_leaks_nothing() {
    // Exact thread accounting needs the process to itself, and libtest
    // runs this binary's other tests on parallel threads: the test
    // re-runs itself alone in a child process.
    const ALONE: &str = "CONVGPU_TEST_ALONE";
    if std::env::var_os(ALONE).is_none() {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "query_metrics_interleaved_with_disconnects_leaks_nothing",
                "--exact",
                "--test-threads=1",
            ])
            .env(ALONE, "1")
            .output()
            .unwrap();
        assert!(
            child.status.success(),
            "{}{}",
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    let (server, svc) = live_service("obs-shutdown", 5120);
    let endpoint = server.endpoint().clone();
    let baseline = thread_count();

    // Phase 1: clients connect, mix metrics queries with regular
    // traffic, and disconnect without ceremony. A round has as many
    // clients as a server keeps parked readers.
    const CLIENTS: usize = MAX_IDLE_THREADS;
    let round = |first: u64| {
        let mut clients = Vec::new();
        for c in first..first + CLIENTS as u64 {
            let client = SchedulerClient::connect_endpoint(&endpoint).unwrap();
            let container = ContainerId(c);
            client.register(container, Bytes::mib(64)).unwrap();
            for _ in 0..4 {
                let text = client.query_metrics().unwrap();
                assert!(
                    text.contains("convgpu_sched_decisions_total"),
                    "metrics response lost or truncated: {text:?}"
                );
                client.ping().unwrap();
            }
            client.container_close(container).unwrap();
            clients.push(client);
        }
        clients
    };
    let clients = round(100);
    // Every client has had an answer, so its connection thread exists on
    // the server side; the clients themselves added none.
    assert_eq!(
        thread_count(),
        baseline + CLIENTS,
        "{CLIENTS} live clients must cost the server's {CLIENTS} connection threads and nothing else"
    );
    drop(clients);

    // Phase 2: the connection threads park once the clients close, as
    // many as a server keeps; none is left behind beyond those.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.readers_parked() != CLIENTS {
        assert!(
            std::time::Instant::now() < deadline,
            "{} of {CLIENTS} readers parked",
            server.readers_parked()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        thread_count() <= baseline + CLIENTS,
        "threads leaked: {} now vs {baseline} baseline",
        thread_count()
    );
    // A second round of clients is served by the parked threads.
    let clients = round(200);
    assert_eq!(
        thread_count(),
        baseline + CLIENTS,
        "a second round added threads"
    );
    assert_eq!(server.readers_spawned(), CLIENTS as u64);
    drop(clients);

    // Phase 3: a request in flight when the server goes away must error
    // out, never hang or vanish.
    let survivor = SchedulerClient::connect_endpoint(&endpoint).unwrap();
    survivor.ping().unwrap();
    server.shutdown();
    let answered = std::thread::spawn(move || survivor.query_metrics());
    let t0 = std::time::Instant::now();
    while !answered.is_finished() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "query against a dead server hung instead of erroring"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(answered.join().unwrap().is_err());
    // No connection left and the server gone: its accept thread and every
    // reader end, parked or not.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while thread_count() != baseline - 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "threads leaked: {} now vs {baseline} baseline with the accept thread",
            thread_count()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    svc.with_scheduler(|s| s.check_invariants().unwrap());
}

#[test]
fn malformed_client_does_not_disturb_others() {
    use std::io::Write;
    let (server, _svc) = live_service("malformed", 5120);
    // A hostile client writes garbage and an over-long line. It speaks
    // the transport hello (a TCP no-hello peer never even reaches the
    // codec layer), so the garbage lands on the component under test.
    let mut bad = Conn::connect(server.endpoint()).unwrap();
    bad.write_all(b"{not json}\n").unwrap();
    let big = vec![b'x'; 100_000];
    let _ = bad.write_all(&big);
    // A good client still gets proper service.
    let client = SchedulerClient::connect_endpoint(server.endpoint()).unwrap();
    client.ping().unwrap();
    client.register(ContainerId(1), Bytes::mib(128)).unwrap();
    let dir = client.request_dir(ContainerId(1)).unwrap();
    assert!(dir.contains("cnt-0001"));
    server.shutdown();
}

/// Migration is retired: a node daemon answers `migrate` and
/// `query_migrations` with the `error` it gives `query_cluster`, admits
/// nothing, and keeps serving the connection.
#[test]
fn a_node_daemon_refuses_migrate_and_query_migrations() {
    use convgpu::ipc::endpoint::IpcError;
    let (server, svc) = live_service("nodemigrate", 5120);
    let client = SchedulerClient::connect_endpoint(server.endpoint()).unwrap();
    let refused = |req: Request| match client.request(req) {
        Err(IpcError::Scheduler(message)) => message,
        other => panic!("expected an error reply, got {other:?}"),
    };
    let container = ContainerId(7);
    let migrate = Request::Migrate {
        container,
        node: String::new(),
        limit: Bytes::mib(512),
        used: Bytes::mib(128),
    };
    assert_eq!(refused(migrate), "not a cluster daemon");
    assert_eq!(refused(Request::QueryMigrations), "not a cluster daemon");
    assert!(
        client.query_home(container).is_err(),
        "a refused migrate registers nothing"
    );
    svc.with_scheduler(|s| assert!(s.container(container).is_none()));
    // The same connection keeps answering, a registration included.
    client.ping().unwrap();
    client.register(container, Bytes::mib(512)).unwrap();
    assert_eq!(client.query_home(container).unwrap().1, 0);
    server.shutdown();
}

/// Hostile clients against a *served cluster router*: garbage lines,
/// truncated binary frames, bad magic bytes, and unknown message types
/// kill only their own connection. Well-behaved clients on both codecs
/// keep getting routed service throughout.
#[test]
fn hostile_frames_against_router_disturb_no_one() {
    use convgpu::middleware::router::{ClusterRouter, NodeServer, RouterConfig};
    use convgpu::scheduler::backend::TopologyBackend;
    use std::io::{Read, Write};

    let dir =
        std::env::temp_dir().join(format!("convgpu-itest-proto-router-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let node = NodeServer::serve_endpoint(
        "n0",
        TopologyBackend::Single(Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(2048)),
            PolicyKind::Fifo.build(0),
        )),
        RealClock::handle(),
        dir.clone(),
        &test_endpoint(&dir, "node.sock"),
    )
    .unwrap();
    let router = Arc::new(ClusterRouter::attach(
        vec![("n0".to_string(), node.endpoint().clone())],
        WireCodec::Binary,
        RouterConfig::default(),
        RealClock::handle(),
    ));
    let server = router
        .serve_on_endpoint(&test_endpoint(&dir, "router.sock"))
        .unwrap();
    let router_endpoint = server.endpoint().clone();

    // Wave of hostile connections, each broken in a different way. Each
    // completes the transport hello first (a no-op on UNIX), so the
    // hostility lands on the codec layer, the component under test.
    {
        // Not JSON, not a binary frame.
        let mut s = Conn::connect(&router_endpoint).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    }
    {
        // Truncated binary frame: header promises 64 bytes, sends 3.
        let mut s = Conn::connect(&router_endpoint).unwrap();
        let mut partial = vec![MAGIC];
        partial.extend_from_slice(&64u32.to_le_bytes());
        partial.extend_from_slice(&[1, 2, 3]);
        s.write_all(&partial).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        // The server must close, not hang on, this connection.
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
    }
    {
        // A frame length far beyond the cap.
        let mut s = Conn::connect(&router_endpoint).unwrap();
        let mut huge = vec![MAGIC];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let _ = s.write_all(&huge);
    }
    {
        // Valid envelope framing, unknown body type.
        let mut s = Conn::connect(&router_endpoint).unwrap();
        s.write_all(b"{\"id\": 1, \"body\": {\"type\": \"warp_drive\"}}\n")
            .unwrap();
    }
    {
        // A corrupted copy of a real request frame.
        let mut frame = encode_frame(&Envelope {
            id: 9,
            body: Request::QueryCluster,
        });
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut s = Conn::connect(&router_endpoint).unwrap();
        let _ = s.write_all(&frame);
    }

    // Both codecs still get full routed service.
    for (codec, c) in [(WireCodec::Json, 1u64), (WireCodec::Binary, 2u64)] {
        let client =
            SchedulerClient::connect_endpoint_with_codec(&router_endpoint, codec, None).unwrap();
        let container = ContainerId(c);
        client.register(container, Bytes::mib(256)).unwrap();
        assert_eq!(
            client
                .request_alloc(container, c, Bytes::mib(64), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        client
            .alloc_done(container, c, 0xC0 + c, Bytes::mib(64))
            .unwrap();
        assert_eq!(client.free(container, c, 0xC0 + c).unwrap(), Bytes::mib(64));
        let (strategy, nodes) = client.query_cluster().unwrap();
        assert_eq!(strategy, "spread");
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].node, "n0");
        client.container_close(container).unwrap();
    }

    // A plain node daemon (not a router) answers query_cluster with a
    // protocol error, not a hang or a crash.
    let direct = SchedulerClient::connect_endpoint(node.endpoint()).unwrap();
    assert!(direct.query_cluster().is_err());

    server.shutdown();
    node.shutdown();
}

/// Deterministic hostile-connection fuzzer against a *served cluster
/// router*: a wave of connections each spraying pseudo-random bytes in
/// one of several framings (raw garbage, binary-framed garbage,
/// newline-terminated garbage, truncated real frames). None may panic
/// or wedge the server; a well-behaved client gets full routed service
/// after every wave. The wave count defaults to a PR-sized 32 and is
/// raised by the nightly deep tier via `CONVGPU_FUZZ_CONNS` (fixed
/// seed; a larger budget walks further down the same stream).
#[test]
fn fuzzed_connections_never_wedge_the_router() {
    use convgpu::middleware::router::{ClusterRouter, NodeServer, RouterConfig};
    use convgpu::scheduler::backend::TopologyBackend;
    use std::io::{Read, Write};

    let conns: u64 = std::env::var("CONVGPU_FUZZ_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);

    let dir = std::env::temp_dir().join(format!("convgpu-itest-proto-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let node = NodeServer::serve_endpoint(
        "n0",
        TopologyBackend::Single(Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(2048)),
            PolicyKind::Fifo.build(0),
        )),
        RealClock::handle(),
        dir.clone(),
        &test_endpoint(&dir, "node.sock"),
    )
    .unwrap();
    let router = Arc::new(ClusterRouter::attach(
        vec![("n0".to_string(), node.endpoint().clone())],
        WireCodec::Binary,
        RouterConfig::default(),
        RealClock::handle(),
    ));
    let server = router
        .serve_on_endpoint(&test_endpoint(&dir, "router.sock"))
        .unwrap();
    let router_endpoint = server.endpoint().clone();

    let mut rng = DetRng::seed_from_u64(0xF0_22_F0_22);
    for i in 0..conns {
        // Hello'd like a real client, so the garbage exercises the codec
        // layer rather than dying in the TCP handshake.
        let mut s = Conn::connect(&router_endpoint).unwrap();
        let len = rng.index(96);
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            payload.push(rng.next_u64() as u8);
        }
        let buf = match rng.next_below(4) {
            0 => payload, // raw garbage, no framing at all
            1 => {
                // Binary-framed garbage with an honest length header.
                let mut frame = vec![MAGIC];
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend(payload);
                frame
            }
            2 => {
                // Newline-terminated garbage for the JSON line codec.
                payload.retain(|&b| b != b'\n');
                payload.push(b'\n');
                payload
            }
            _ => {
                // A real frame truncated at a random byte.
                let full = encode_frame(&Envelope {
                    id: i,
                    body: Request::QueryCluster,
                });
                let cut = 1 + rng.index(full.len() - 1);
                full[..cut].to_vec()
            }
        };
        let _ = s.write_all(&buf);
        if rng.next_below(2) == 0 {
            // Half the waves also wait for the server-side close, so a
            // wedged reader thread would show up as a hang here.
            let _ = s.shutdown(std::net::Shutdown::Write);
            let mut rest = Vec::new();
            let _ = s.read_to_end(&mut rest);
        }
        // Every 8th wave, prove the router still serves real clients.
        if i % 8 == 7 {
            let client = SchedulerClient::connect_endpoint_with_codec(
                &router_endpoint,
                WireCodec::Binary,
                None,
            )
            .unwrap();
            client.ping().unwrap();
        }
    }

    // Full routed service after the storm, and clean node invariants.
    let client =
        SchedulerClient::connect_endpoint_with_codec(&router_endpoint, WireCodec::Binary, None)
            .unwrap();
    let container = ContainerId(7007);
    client.register(container, Bytes::mib(256)).unwrap();
    assert_eq!(
        client
            .request_alloc(container, 1, Bytes::mib(64), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    client
        .alloc_done(container, 1, 0xF0, Bytes::mib(64))
        .unwrap();
    assert_eq!(client.free(container, 1, 0xF0).unwrap(), Bytes::mib(64));
    client.container_close(container).unwrap();
    let (_, nodes) = client.query_cluster().unwrap();
    assert_eq!(nodes[0].containers, 0);

    server.shutdown();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// TCP-specific hostile battery, run unconditionally (no
/// `CONVGPU_TRANSPORT` needed): peers that skip or corrupt the version
/// hello are dropped before the codec layer, hello'd garbage degrades
/// exactly as on UNIX sockets, and a well-behaved client gets full
/// service in both codecs afterwards.
#[test]
fn tcp_listener_survives_hostile_clients() {
    use convgpu::ipc::transport::{HELLO_MAGIC, HELLO_ROLE_CLIENT, HELLO_TAG, TRANSPORT_VERSION};
    use std::io::{Read, Write};

    let dir = std::env::temp_dir().join(format!("convgpu-itest-proto-tcp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let svc = Arc::new(SchedulerService::new(
        Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(2048)),
            PolicyKind::Fifo.build(0),
        ),
        RealClock::handle(),
        dir.clone(),
    ));
    let server = SocketServer::bind_endpoint(
        &EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
        Arc::new(ServiceHandler::new(Arc::clone(&svc))),
    )
    .unwrap();
    let endpoint = server.endpoint().clone();

    // 1. No hello at all: a valid request frame sent raw is consumed as
    //    a (bad) hello and the connection is dropped without a reply.
    {
        let mut s = Conn::connect_raw(&endpoint).unwrap();
        let frame = encode_frame(&Envelope {
            id: 1,
            body: Request::Ping,
        });
        s.write_all(&frame).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "no-hello peer must get no bytes back");
    }
    // 2. A hello from the future: right magic, wrong version.
    {
        let mut s = Conn::connect_raw(&endpoint).unwrap();
        s.write_all(&[
            HELLO_MAGIC,
            HELLO_TAG,
            TRANSPORT_VERSION + 1,
            HELLO_ROLE_CLIENT,
        ])
        .unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "wrong-version peer must be dropped");
    }
    // 3. A peer that connects and says nothing, then vanishes. The
    //    handshake read timeout reclaims the reader thread.
    {
        let s = Conn::connect_raw(&endpoint).unwrap();
        drop(s);
    }
    // 4. Hello'd garbage waves in every framing the codec layer knows.
    let mut rng = DetRng::seed_from_u64(0x7C9_7C9);
    for _ in 0..16 {
        let mut s = Conn::connect(&endpoint).unwrap();
        let len = rng.index(96);
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            payload.push(rng.next_u64() as u8);
        }
        let buf = match rng.next_below(3) {
            0 => payload,
            1 => {
                let mut frame = vec![MAGIC];
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend(payload);
                frame
            }
            _ => {
                payload.retain(|&b| b != b'\n');
                payload.push(b'\n');
                payload
            }
        };
        let _ = s.write_all(&buf);
    }

    // Full service afterwards, in both codecs over TCP.
    for (codec, c) in [(WireCodec::Json, 1u64), (WireCodec::Binary, 2u64)] {
        let client = SchedulerClient::connect_endpoint_with_codec(&endpoint, codec, None).unwrap();
        let container = ContainerId(c);
        client.register(container, Bytes::mib(256)).unwrap();
        assert_eq!(
            client
                .request_alloc(container, c, Bytes::mib(64), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        client
            .alloc_done(container, c, 0xD0 + c, Bytes::mib(64))
            .unwrap();
        assert_eq!(client.free(container, c, 0xD0 + c).unwrap(), Bytes::mib(64));
        client.container_close(container).unwrap();
    }
    svc.with_scheduler(|s| s.check_invariants().unwrap());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wrapper of one container over a real socket: the device
/// simulator behind a `WrapperModule` whose endpoint is a
/// `SchedulerClient` connected to `server`. The client is returned too,
/// for the calls a wrapper does not make (register, close).
fn live_wrapper(
    server: &SocketServer,
    container: ContainerId,
    obs: Option<ClientObs>,
) -> (Arc<WrapperModule>, Arc<SchedulerClient>) {
    let client = Arc::new(
        SchedulerClient::connect_endpoint_with_codec(server.endpoint(), WireCodec::Json, obs)
            .unwrap(),
    );
    let raw = Arc::new(RawCudaRuntime::new(
        Arc::new(GpuDevice::tesla_k20m()),
        LatencyModel::zero(),
        RealClock::handle(),
    ));
    let endpoint: Arc<dyn SchedulerEndpoint> = client.clone();
    let wrapper = WrapperModule::new(container, raw, endpoint);
    (Arc::new(wrapper), client)
}

/// A container's entry in the books: what its reservation, its usage
/// and its live allocations are.
type Books = (Bytes, Bytes, Vec<(u64, (u64, Bytes))>);

fn books_of(svc: &SchedulerService, container: ContainerId) -> Books {
    svc.with_scheduler(|s| {
        let rec = s.container(container).expect("registered");
        let mut allocations: Vec<_> = rec.allocations.iter().map(|(a, e)| (*a, *e)).collect();
        allocations.sort_unstable();
        (rec.assigned, rec.used, allocations)
    })
}

/// Guardian's threat model: a wrapper that lies in its reports. Each
/// report goes one-way (id 0), so a refusal has no reply to travel in:
/// the daemon counts it, answers nothing, and keeps its books.
#[test]
fn hostile_reports_are_counted_and_never_answered() {
    let (server, svc) = live_service("hostile-reports", 5120);
    let c = ContainerId(1);
    let client = SchedulerClient::connect_endpoint(server.endpoint()).unwrap();
    client.register(c, Bytes::mib(256)).unwrap();
    let granted = client.request_alloc(c, 7, Bytes::mib(64), ApiKind::Malloc);
    assert_eq!(granted.unwrap(), AllocDecision::Granted);
    client.alloc_done(c, 7, 0xA0, Bytes::mib(64)).unwrap();
    let before = books_of(&svc, c);
    let assigned = svc.with_scheduler(|s| s.total_assigned());

    let mut raw = Conn::connect(server.endpoint()).unwrap();
    let stranger = ContainerId(99);
    let reports = [
        // A second alloc_done for a live address, re-sizing it.
        Request::AllocDone {
            container: c,
            pid: 7,
            addr: 0xA0,
            size: Bytes::mib(200),
        },
        // A free of an address nobody allocated: `cudaFree` is
        // idempotent, so the daemon answers it `freed 0` — no refusal.
        Request::Free {
            container: c,
            pid: 7,
            addr: 0xDEAD,
        },
        // An alloc_done and a free for a container nobody registered.
        Request::AllocDone {
            container: stranger,
            pid: 7,
            addr: 0xB0,
            size: Bytes::mib(1),
        },
        Request::Free {
            container: stranger,
            pid: 7,
            addr: 0xA0,
        },
    ];
    for body in reports {
        write_json(&mut raw, &Envelope { id: 0, body }).unwrap();
    }
    write_json(
        &mut raw,
        &Envelope {
            id: 5,
            body: Request::Ping,
        },
    )
    .unwrap();
    // A connection thread that died on a report would leave this read
    // hanging: time it out instead.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut r = BufReader::new(raw.try_clone().unwrap());
    let first: Envelope<Response> = read_json(&mut r).unwrap().unwrap();
    assert_eq!(
        (first.id, first.body),
        (5, Response::Pong),
        "a report was answered"
    );

    let snapshot = svc.obs().registry.snapshot();
    let refused = |kind| {
        snapshot
            .counter("convgpu_ipc_reports_refused_total", &[("type", kind)])
            .unwrap_or(0)
    };
    assert_eq!((refused("alloc_done"), refused("free")), (2, 1));
    assert_eq!(refused("alloc_done") + refused("free"), 3);
    assert_eq!(
        books_of(&svc, c),
        before,
        "a refused report changed the books"
    );
    assert_eq!(svc.with_scheduler(|s| s.total_assigned()), assigned);
    svc.with_scheduler(|s| s.check_invariants().unwrap());
    server.shutdown();
}

/// (a) One connection carries a `cudaMalloc`'s one-way `alloc_done` and a
/// `cudaFree`'s one-way `free` ahead of the next waited request: the
/// `cudaMemGetInfo` after them sees both. Had the free overtaken the
/// alloc_done, it would have found no address and left 100 MiB in use.
#[test]
fn reports_land_before_the_next_request_on_their_connection() {
    let (server, svc) = live_service("report-order", 5120);
    let c = ContainerId(1);
    let (wrapper, client) = live_wrapper(&server, c, None);
    client.register(c, Bytes::mib(512)).unwrap();
    wrapper.cuda_register_fat_binary(7).unwrap();
    for _ in 0..64 {
        let p = wrapper.cuda_malloc(7, Bytes::mib(100)).unwrap();
        wrapper.cuda_free(7, p).unwrap();
        let info = wrapper.cuda_mem_get_info(7).unwrap();
        assert_eq!(info, (Bytes::mib(512), Bytes::mib(512)));
        assert_eq!(books_of(&svc, c).2, Vec::new());
    }
    wrapper.cuda_unregister_fat_binary(7).unwrap();
    client.container_close(c).unwrap();
    svc.with_scheduler(|s| s.check_invariants().unwrap());
    server.shutdown();
}

/// (b) `process_exit` stays waited: once `__cudaUnregisterFatBinary`
/// returns, every report that pid sent is on the books — its allocations
/// are released, none arrives late to leak an entry, and the daemon has
/// received every one — while another pid's allocation stays.
#[test]
fn a_waited_process_exit_puts_every_report_on_the_books() {
    let (server, svc) = live_service("report-exit", 5120);
    let c = ContainerId(1);
    let (wrapper, client) = live_wrapper(&server, c, None);
    client.register(c, Bytes::mib(512)).unwrap();
    let other = wrapper.cuda_malloc(8, Bytes::mib(10)).unwrap();
    // Waited: pid 8's report has arrived before the counts are read.
    wrapper.cuda_mem_get_info(8).unwrap();
    let requests = |kind| {
        svc.obs()
            .registry
            .snapshot()
            .counter("convgpu_ipc_requests_total", &[("type", kind)])
            .unwrap_or(0)
    };
    let (done0, free0) = (requests("alloc_done"), requests("free"));
    let mut live: Vec<_> = (1..=4)
        .map(|mib| wrapper.cuda_malloc(7, Bytes::mib(mib)).unwrap())
        .collect();
    wrapper.cuda_free(7, live.remove(0)).unwrap();
    wrapper.cuda_unregister_fat_binary(7).unwrap();

    let (assigned, used, allocations) = books_of(&svc, c);
    assert_eq!(allocations, vec![(other.addr(), (8, Bytes::mib(10)))]);
    assert_eq!(used, Bytes::mib(10 + 66), "pid 8's allocation and context");
    assert!(assigned >= used);
    assert_eq!(requests("alloc_done") - done0, 4);
    assert_eq!(requests("free") - free0, 1);
    svc.with_scheduler(|s| s.check_invariants().unwrap());
    server.shutdown();
}

/// (c) A report to a dead daemon fails at its own write or, if the
/// kernel still took the bytes, the next waited call fails. Neither
/// hangs.
#[test]
fn reports_to_a_dead_daemon_fail_and_never_hang() {
    let (server, _svc) = live_service("report-dead", 5120);
    let c = ContainerId(1);
    let (wrapper, client) = live_wrapper(&server, c, None);
    client.register(c, Bytes::mib(512)).unwrap();
    let p = wrapper.cuda_malloc(7, Bytes::mib(64)).unwrap();
    server.shutdown();
    let after = std::thread::spawn(move || {
        let report = wrapper.cuda_free(7, p);
        (report, wrapper.cuda_mem_get_info(7))
    });
    let t0 = std::time::Instant::now();
    while !after.is_finished() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "a report to a dead daemon hung"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let (report, next) = after.join().unwrap();
    assert!(
        matches!(report, Ok(()) | Err(CudaError::SchedulerUnavailable)),
        "{report:?}"
    );
    assert_eq!(next, Err(CudaError::SchedulerUnavailable));
}

/// (d) A peer that predates one-way reports answers id 0 like any other
/// id. No caller waits on id 0, so the caller-reads client drops that
/// frame and the next waited call still gets its own reply.
#[test]
fn an_answer_to_a_report_is_dropped_by_the_client() {
    use convgpu::ipc::transport::{server_handshake, TransportListener};
    use convgpu::sim::sync::Mutex;
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!(
        "convgpu-itest-proto-old-peer-{}",
        std::process::id()
    ));
    let listener = TransportListener::bind(&test_endpoint(&dir, "old.sock")).unwrap();
    let endpoint = listener.local_endpoint();
    let peer = std::thread::spawn(move || {
        let mut conn = listener.accept().unwrap();
        let writer = Mutex::new(conn.try_clone().unwrap());
        server_handshake(&mut conn, &writer).unwrap();
        let mut reader = BufReader::new(conn);
        let mut ids = Vec::new();
        while let Some((env, codec)) = read_auto::<Envelope<Request>, _>(&mut reader).unwrap() {
            let body = match env.body {
                Request::Ping => Response::Pong,
                _ => Response::Ok,
            };
            ids.push(env.id);
            let frame = encode_with(&Envelope { id: env.id, body }, codec);
            writer.lock().write_all(&frame).unwrap();
        }
        ids
    });
    let client = SchedulerClient::connect_endpoint(&endpoint).unwrap();
    let c = ContainerId(1);
    client.report_alloc_done(c, 7, 0xA0, Bytes::mib(1)).unwrap();
    client.report_free(c, 7, 0xA0).unwrap();
    // An `ok` delivered to the ping would be an unexpected response.
    client.ping().unwrap();
    client.ping().unwrap();
    drop(client);
    assert_eq!(peer.join().unwrap(), vec![0, 0, 1, 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where the saving comes from, counted by the program itself: one
/// node_json-shaped script (256 calls, malloc/free with at most 8 live,
/// `cudaMemGetInfo` every 16th call, an over-limit probe every 64th)
/// through `WrapperModule` → `SchedulerClient`. Only `alloc_request` and
/// `mem_info` wait — at most one round trip per call, where waiting for
/// every report too cost about 1.46 — and the daemon still receives
/// every report and writes no reply to any.
#[test]
fn the_wrapper_waits_at_most_one_round_trip_per_call() {
    let (server, svc) = live_service("round-trips", 5120);
    let client_registry = Arc::new(Registry::new());
    let obs = ClientObs {
        registry: Arc::clone(&client_registry),
        clock: RealClock::handle(),
    };
    let c = ContainerId(1);
    let (wrapper, client) = live_wrapper(&server, c, Some(obs));
    client.register(c, Bytes::mib(1024)).unwrap();
    wrapper.cuda_register_fat_binary(7).unwrap();

    let kinds: Vec<&str> = Request::SCHEMA.iter().map(|row| row.wire).collect();
    let round_trips = || -> u64 {
        let snapshot = client_registry.snapshot();
        kinds
            .iter()
            .filter_map(|kind| {
                snapshot.histogram("convgpu_ipc_client_rtt_seconds", &[("type", kind)])
            })
            .map(|h| h.count())
            .sum()
    };
    let waited_before = round_trips();
    let server_before = svc.obs().registry.snapshot();

    const CALLS: u64 = 256;
    let mut rng = DetRng::seed_from_u64(0x35);
    let mut live = Vec::new();
    let (mut mallocs, mut frees, mut infos, mut probes) = (0u64, 0u64, 0u64, 0u64);
    for call in 1..=CALLS {
        if call % 64 == 0 {
            let over = wrapper.cuda_malloc(7, Bytes::mib(2048));
            assert_eq!(over, Err(CudaError::SchedulerRejected));
            probes += 1;
        } else if call % 16 == 0 {
            wrapper.cuda_mem_get_info(7).unwrap();
            infos += 1;
        } else if live.len() == 8 || (!live.is_empty() && rng.next_below(2) == 0) {
            let p = live.swap_remove(rng.index(live.len()));
            wrapper.cuda_free(7, p).unwrap();
            frees += 1;
        } else {
            let size = Bytes::mib(1 + rng.next_below(16));
            live.push(wrapper.cuda_malloc(7, size).unwrap());
            mallocs += 1;
        }
    }
    let waited = round_trips() - waited_before;
    // The barrier that puts the last reports on the books.
    wrapper.cuda_unregister_fat_binary(7).unwrap();
    let server_after = svc.obs().registry.snapshot();

    let sent_by_parent = 2 * mallocs + frees + infos + probes;
    assert_eq!(waited, mallocs + probes + infos);
    assert!(
        waited as f64 / CALLS as f64 <= 1.0,
        "{waited} waited round trips for {CALLS} calls (every report waited: {sent_by_parent})"
    );
    let requests = |kind| {
        let count = |s: &Snapshot| {
            s.counter("convgpu_ipc_requests_total", &[("type", kind)])
                .unwrap_or(0)
        };
        count(&server_after) - count(&server_before)
    };
    assert_eq!(requests("alloc_request"), mallocs + probes);
    assert_eq!(requests("alloc_done"), mallocs);
    assert_eq!(requests("free"), frees);
    assert_eq!(requests("mem_info"), infos);
    // Each reply is recorded before its connection's next frame is read,
    // so every one but the process_exit's is counted by now.
    let written: u64 = ["alloc_request", "alloc_done", "free", "mem_info"]
        .iter()
        .map(|kind| {
            let count = |s: &Snapshot| {
                s.histogram("convgpu_ipc_server_write_seconds", &[("type", kind)])
                    .map_or(0, |h| h.count())
            };
            count(&server_after) - count(&server_before)
        })
        .sum();
    assert_eq!(written, waited, "a reply was written to a report");
    client.container_close(c).unwrap();
    server.shutdown();
}
