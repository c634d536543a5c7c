//! Wire-protocol damage matrix, mirroring `qtaccel-accel`'s
//! `tests/checkpoint.rs`: every corruption of a telemetry frame —
//! truncation mid-frame, a flipped CRC, bad magic or version words,
//! zero-length and oversized payload declarations, unknown kinds,
//! malformed payload internals, interleaved partial writes — must be a
//! *typed* refusal ([`WireError`]), never a panic and never a silent
//! partial merge. The happy path (every payload kind round-tripping,
//! byte-at-a-time reassembly) is pinned alongside so the refusals are
//! provably about the damage, not the encoding.

use qtaccel_telemetry::frame::crc32;
use qtaccel_telemetry::wire::{
    registry_delta, Frame, FramePayload, FrameReader, WireError, HEADER_WORDS, MAX_PAYLOAD_WORDS,
};
use qtaccel_telemetry::{Alert, MetricsRegistry, Span, SpanId, TraceId, WatchdogRule};

fn sample_registry(samples: u64) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.set_counter("qtaccel_samples_total", "samples retired", samples);
    r.set_gauge("qtaccel_executor_queue_depth", "queue depth", 1.5);
    for v in [7u64, 21, 9000] {
        r.observe("qtaccel_executor_chunk_service_ns", "chunk service", v);
    }
    r.set_info(
        "qtaccel_build_info",
        "provenance",
        &[("seed", "42"), ("format", "Q8.8")],
    );
    r
}

fn sample_spans() -> Vec<Span> {
    let trace = TraceId::derive(3, 0);
    let root = SpanId::derive(trace, None, "train_batch", 0, 4_096);
    let chunk = SpanId::derive(trace, Some(root), "chunk", 1, 0);
    vec![
        Span {
            trace,
            id: root,
            parent: None,
            name: "train_batch".into(),
            lane: 0,
            ordinal: 4_096,
            start_ns: 100,
            end_ns: 9_000,
        },
        Span {
            trace,
            id: chunk,
            parent: Some(root),
            name: "chunk".into(),
            lane: 1,
            ordinal: 0,
            start_ns: 150,
            end_ns: 4_000,
        },
        Span {
            trace,
            id: SpanId::derive(trace, Some(chunk), "checkpoint_save", 1, 1),
            parent: Some(chunk),
            name: "checkpoint_save".into(),
            lane: 1,
            ordinal: 1,
            start_ns: 3_000,
            end_ns: 3_500,
        },
    ]
}

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame {
            worker: 2,
            seq: 0,
            payload: FramePayload::Hello {
                label: "worker-2".into(),
            },
        },
        Frame {
            worker: 2,
            seq: 1,
            payload: FramePayload::Metrics(sample_registry(50_000)),
        },
        Frame {
            worker: 2,
            seq: 2,
            payload: FramePayload::Spans(sample_spans()),
        },
        Frame {
            worker: 2,
            seq: 3,
            payload: FramePayload::Alerts(vec![Alert {
                rule: WatchdogRule::Saturation,
                cycle: 77,
                sample: 31,
                value: 0.97,
                threshold: 0.9,
            }]),
        },
    ]
}

/// Decode a standalone byte buffer the way a connection handler would:
/// feed everything, pull one frame, demand a clean boundary.
fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
    Frame::decode(bytes)
}

/// Rewrite the frame's trailing CRC word after tampering, so the damage
/// under test is reached instead of masked by the CRC check.
fn fix_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 8]) as u64;
    bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
}

fn set_header_word(bytes: &mut [u8], word: usize, value: u64) {
    bytes[word * 8..(word + 1) * 8].copy_from_slice(&value.to_le_bytes());
    fix_crc(bytes);
}

#[test]
fn every_kind_round_trips_bit_exactly() {
    for frame in sample_frames() {
        let decoded = decode(&frame.encode()).expect("clean frame decodes");
        assert_eq!(decoded, frame);
    }
}

#[test]
fn truncation_anywhere_mid_frame_is_refused_not_panicked() {
    for frame in sample_frames() {
        let bytes = frame.encode();
        // Cut at every prefix length: header, payload, and CRC cuts
        // alike must refuse as Truncated (never panic, never a frame).
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(WireError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn flipped_bits_fail_the_crc() {
    let bytes = Frame {
        worker: 1,
        seq: 5,
        payload: FramePayload::Metrics(sample_registry(123)),
    }
    .encode();
    // Flip one bit in every byte past the header-validated words (the
    // early header checks legitimately fire first for words 0..3) and
    // in the CRC trailer itself.
    for i in (HEADER_WORDS * 8)..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x10;
        match decode(&bad) {
            Err(WireError::BadCrc) => {}
            other => panic!("flip at byte {i}: expected BadCrc, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_and_version_are_refused_from_the_header_alone() {
    let good = sample_frames()[0].encode();

    let mut bad_magic = good.clone();
    set_header_word(&mut bad_magic, 0, 0x4445_4144_4245_4546); // not the magic
    assert!(matches!(decode(&bad_magic), Err(WireError::BadMagic)));
    // Refused from the first 8 bytes, before any payload arrives.
    let mut reader = FrameReader::new();
    reader.push(&bad_magic[..8]);
    assert!(matches!(reader.next_frame(), Err(WireError::BadMagic)));

    let mut bad_version = good.clone();
    set_header_word(&mut bad_version, 1, 99);
    match decode(&bad_version) {
        Err(WireError::BadVersion { found: 99 }) => {}
        other => panic!("expected BadVersion{{99}}, got {other:?}"),
    }

    let mut bad_kind = good.clone();
    set_header_word(&mut bad_kind, 2, 42);
    match decode(&bad_kind) {
        Err(WireError::BadKind { found: 42 }) => {}
        other => panic!("expected BadKind{{42}}, got {other:?}"),
    }
}

#[test]
fn zero_length_and_oversized_declarations_are_refused() {
    let good = sample_frames()[0].encode();

    let mut empty = good.clone();
    set_header_word(&mut empty, 5, 0);
    assert!(matches!(decode(&empty), Err(WireError::EmptyPayload)));

    let mut oversized = good.clone();
    set_header_word(&mut oversized, 5, MAX_PAYLOAD_WORDS + 1);
    match decode(&oversized) {
        Err(WireError::Oversized { words }) => assert_eq!(words, MAX_PAYLOAD_WORDS + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
    // The oversized declaration is refused at the header — before the
    // receiver ever buffers the claimed megabytes.
    let mut reader = FrameReader::new();
    reader.push(&oversized[..HEADER_WORDS * 8]);
    assert!(matches!(
        reader.next_frame(),
        Err(WireError::Oversized { .. })
    ));
}

#[test]
fn malformed_payload_internals_are_typed_refusals() {
    // An alert frame whose rule code names no rule.
    let mut bad_rule = Frame {
        worker: 0,
        seq: 0,
        payload: FramePayload::Alerts(vec![Alert {
            rule: WatchdogRule::Divergence,
            cycle: 1,
            sample: 2,
            value: 3.0,
            threshold: 4.0,
        }]),
    }
    .encode();
    // Payload word 1 is the first alert's rule code.
    set_header_word(&mut bad_rule, HEADER_WORDS + 1, 999);
    assert!(matches!(decode(&bad_rule), Err(WireError::BadPayload(_))));

    // A metrics frame whose declared count overruns its payload.
    let mut overrun = Frame {
        worker: 0,
        seq: 0,
        payload: FramePayload::Metrics(sample_registry(1)),
    }
    .encode();
    set_header_word(&mut overrun, HEADER_WORDS, 1_000);
    assert!(matches!(decode(&overrun), Err(WireError::BadPayload(_))));

    // A hello whose label length exceeds the frame.
    let mut long_label = Frame {
        worker: 0,
        seq: 0,
        payload: FramePayload::Hello { label: "x".into() },
    }
    .encode();
    set_header_word(&mut long_label, HEADER_WORDS, u64::MAX);
    assert!(matches!(decode(&long_label), Err(WireError::BadPayload(_))));
}

#[test]
fn interleaved_partial_writes_reassemble_and_torn_tails_refuse() {
    let frames = sample_frames();
    let stream: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();

    // Feed the stream in ragged fragments (1, 2, 3, ... bytes): every
    // frame reassembles exactly once, in order.
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    let mut pos = 0;
    let mut step = 1;
    while pos < stream.len() {
        let end = (pos + step).min(stream.len());
        reader.push(&stream[pos..end]);
        pos = end;
        step = step % 7 + 1;
        while let Some(f) = reader.next_frame().expect("clean stream") {
            out.push(f);
        }
    }
    assert_eq!(out, frames);
    assert!(reader.is_empty(), "stream ends on a frame boundary");

    // A stream torn mid-frame: everything before the tear decodes,
    // the residue is detectably incomplete (what the collector counts
    // as a decode error at EOF).
    let torn = &stream[..stream.len() - 11];
    let mut reader = FrameReader::new();
    reader.push(torn);
    let mut whole = 0;
    while let Some(_f) = reader.next_frame().expect("prefix is clean") {
        whole += 1;
    }
    assert_eq!(whole, frames.len() - 1, "only complete frames surface");
    assert!(!reader.is_empty(), "the torn tail is visible as residue");
}

#[test]
fn corrupt_frame_never_partially_merges() {
    // Decode failure happens before any registry is surfaced: a frame
    // that fails CRC yields no FramePayload at all, so there is nothing
    // to partially merge. Pin that the error path hands back only the
    // typed error.
    let mut bad = Frame {
        worker: 4,
        seq: 0,
        payload: FramePayload::Metrics(sample_registry(500)),
    }
    .encode();
    let mid = HEADER_WORDS * 8 + 16;
    bad[mid] ^= 0x01;
    let mut reader = FrameReader::new();
    reader.push(&bad);
    match reader.next_frame() {
        Err(WireError::BadCrc) => {}
        other => panic!("expected BadCrc, got {other:?}"),
    }
}

#[test]
fn deltas_compose_associatively_across_the_wire() {
    // cur = prev ⊕ delta must survive an encode/decode round trip: the
    // collector's merge of shipped deltas equals the local registry.
    let prev = sample_registry(1_000);
    let cur = sample_registry(2_500);
    let delta = registry_delta(&prev, &cur);
    let frame = Frame {
        worker: 0,
        seq: 1,
        payload: FramePayload::Metrics(delta),
    };
    let decoded = decode(&frame.encode()).expect("delta frame decodes");
    let FramePayload::Metrics(shipped) = decoded.payload else {
        panic!("expected a metrics payload");
    };
    let mut rebuilt = prev.clone();
    rebuilt
        .merge(&shipped)
        .expect("a delta merges back onto its base");
    assert_eq!(
        rebuilt.get("qtaccel_samples_total"),
        cur.get("qtaccel_samples_total"),
        "counters re-add exactly"
    );
}
