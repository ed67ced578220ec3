//! Property tests: build → parse is the identity, checksums always verify
//! on well-formed packets and fail under corruption, and pcap round-trips
//! are lossless.

use std::io::BufReader;
use std::net::Ipv4Addr;

use eleph_packet::pcap::{
    PcapReader, PcapWriter, TsResolution, MAGIC_MICROS, MAGIC_NANOS, MAX_SANE_CAPLEN,
};
use eleph_packet::{parse_meta, IpProtocol, LinkType, PacketBuilder, PacketError, TcpFlags};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// A record as generated: seconds, sub-seconds, original length (the
/// captured length plus the snapped bytes) and the captured bytes.
type RawRecord = (u32, u32, u32, Vec<u8>);

/// One record, often empty or snapped, with sub-seconds valid for
/// either resolution's smaller range.
fn arb_record() -> impl Strategy<Value = RawRecord> {
    let len = prop_oneof![Just(0usize), 1usize..64, 64usize..1600];
    let snapped = prop_oneof![Just(0u32), 1u32..2000];
    (any::<u32>(), 0u32..1_000_000, snapped, len, any::<u8>()).prop_map(
        |(secs, subsec, snapped, len, seed)| {
            let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
            (secs, subsec, len as u32 + snapped, data)
        },
    )
}

/// A capture written by hand (the library writer only emits
/// little-endian files) in either byte order, then `tail` appended.
fn capture(records: &[RawRecord], big_endian: bool, nano: bool, tail: &[u8]) -> Vec<u8> {
    let word = |v: u32| {
        if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        }
    };
    let mut buf = Vec::new();
    buf.extend_from_slice(&word(if nano { MAGIC_NANOS } else { MAGIC_MICROS }));
    for half in [2u16, 4] {
        // Version 2.4.
        buf.extend_from_slice(&if big_endian {
            half.to_be_bytes()
        } else {
            half.to_le_bytes()
        });
    }
    buf.extend_from_slice(&[0; 8]); // thiszone, sigfigs
    buf.extend_from_slice(&word(65535));
    buf.extend_from_slice(&word(101));
    for (secs, subsec, orig_len, data) in records {
        for field in [*secs, *subsec, data.len() as u32, *orig_len] {
            buf.extend_from_slice(&word(field));
        }
        buf.extend_from_slice(data);
    }
    buf.extend_from_slice(tail);
    buf
}

/// Every record a read yields as `(ts_ns, orig_len, bytes)`, and the
/// error that stopped it (if any).
type ReadOut = (Vec<(u64, u32, Vec<u8>)>, Option<PacketError>);

/// Read through the in-place path.
fn read_in_place<R: std::io::BufRead>(input: R) -> ReadOut {
    let mut reader = PcapReader::new(input).unwrap();
    let mut got = Vec::new();
    loop {
        match reader.next_record_with(|head, data| (head.ts_ns, head.orig_len, data.to_vec())) {
            Ok(Some(record)) => got.push(record),
            Ok(None) => return (got, None),
            Err(e) => return (got, Some(e)),
        }
    }
}

/// Read through the copying path.
fn read_copied(input: &[u8]) -> ReadOut {
    let mut reader = PcapReader::new(input).unwrap();
    let mut got = Vec::new();
    let mut data = Vec::new();
    loop {
        match reader.next_record_into(&mut data) {
            Ok(Some(head)) => got.push((head.ts_ns, head.orig_len, data.clone())),
            Ok(None) => return (got, None),
            Err(e) => return (got, Some(e)),
        }
    }
}

proptest! {
    #[test]
    fn udp_build_parse_round_trip(
        src in arb_addr(), dst in arb_addr(),
        sport in any::<u16>(), dport in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let bytes = PacketBuilder::udp()
            .src(src, sport)
            .dst(dst, dport)
            .payload(&payload)
            .build_ethernet();
        let meta = parse_meta(LinkType::Ethernet, &bytes, 7).unwrap();
        prop_assert_eq!(meta.src, src);
        prop_assert_eq!(meta.dst, dst);
        prop_assert_eq!(meta.src_port, sport);
        prop_assert_eq!(meta.dst_port, dport);
        prop_assert_eq!(meta.proto, IpProtocol::Udp);
        prop_assert_eq!(meta.wire_len as usize, bytes.len());
    }

    #[test]
    fn tcp_build_parse_round_trip(
        src in arb_addr(), dst in arb_addr(),
        sport in any::<u16>(), dport in any::<u16>(),
        flags in 0u8..=0x3f,
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let bytes = PacketBuilder::tcp()
            .src(src, sport)
            .dst(dst, dport)
            .tcp_flags(TcpFlags(flags))
            .payload(&payload)
            .build_ipv4();
        let meta = parse_meta(LinkType::RawIp, &bytes, 0).unwrap();
        prop_assert_eq!(meta.src, src);
        prop_assert_eq!(meta.dst, dst);
        prop_assert_eq!(meta.src_port, sport);
        prop_assert_eq!(meta.dst_port, dport);
        prop_assert_eq!(meta.proto, IpProtocol::Tcp);
    }

    #[test]
    fn built_ipv4_checksums_always_verify(
        src in arb_addr(), dst in arb_addr(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = PacketBuilder::udp().src(src, 1).dst(dst, 2).payload(&payload).build_ipv4();
        let ip = eleph_packet::Ipv4Packet::parse(&bytes).unwrap();
        prop_assert!(ip.verify_checksum());
        let udp = eleph_packet::UdpDatagram::parse(ip.payload()).unwrap();
        prop_assert!(udp.verify_checksum(src, dst));
    }

    #[test]
    fn single_byte_corruption_never_panics(
        src in arb_addr(), dst in arb_addr(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        corrupt_at in any::<prop::sample::Index>(),
        corrupt_with in 1u8..,
    ) {
        let mut bytes = PacketBuilder::udp().src(src, 9).dst(dst, 10).payload(&payload).build_ethernet();
        let idx = corrupt_at.index(bytes.len());
        bytes[idx] ^= corrupt_with;
        // Must cleanly parse or cleanly fail — never panic.
        let _ = parse_meta(LinkType::Ethernet, &bytes, 0);
    }

    #[test]
    fn truncation_never_panics(
        src in arb_addr(), dst in arb_addr(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        keep in any::<prop::sample::Index>(),
    ) {
        let bytes = PacketBuilder::tcp().src(src, 9).dst(dst, 10).payload(&payload).build_ethernet();
        let keep = keep.index(bytes.len() + 1);
        let _ = parse_meta(LinkType::Ethernet, &bytes[..keep], 0);
    }

    #[test]
    fn ipv4_header_corruption_detected_by_checksum(
        src in arb_addr(), dst in arb_addr(),
        byte in 0usize..20,
        bit in 0u8..8,
    ) {
        let mut bytes = PacketBuilder::udp().src(src, 1).dst(dst, 2).payload_len(32).build_ipv4();
        bytes[byte] ^= 1 << bit;
        match eleph_packet::Ipv4Packet::parse(&bytes) {
            // If it still parses structurally, the checksum must notice.
            Ok(ip) => prop_assert!(!ip.verify_checksum()),
            Err(_) => {} // structural rejection is fine too
        }
    }

    #[test]
    fn pcap_round_trip_preserves_everything(
        records in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 0..256)),
            0..32,
        ),
        nano in any::<bool>(),
    ) {
        let resolution = if nano { TsResolution::Nano } else { TsResolution::Micro };
        let mut buf = Vec::new();
        let mut w = PcapWriter::with_options(&mut buf, 1, resolution, 65535).unwrap();
        for (ts, data) in &records {
            // Keep timestamps in a range that cannot overflow the u32
            // seconds field of the classic format.
            let ts = ts % (u64::from(u32::MAX) * 1_000_000_000);
            w.write_record(ts, data.len() as u32, data).unwrap();
        }
        w.finish().unwrap();

        let r = PcapReader::new(&buf[..]).unwrap();
        let got: eleph_packet::Result<Vec<_>> = r.collect();
        let got = got.unwrap();
        prop_assert_eq!(got.len(), records.len());
        for ((ts, data), rec) in records.iter().zip(&got) {
            let ts = ts % (u64::from(u32::MAX) * 1_000_000_000);
            let expect_ts = match resolution {
                TsResolution::Nano => ts,
                TsResolution::Micro => (ts / 1_000) * 1_000,
            };
            prop_assert_eq!(rec.ts_ns, expect_ts);
            prop_assert_eq!(&rec.data[..], &data[..]);
            prop_assert_eq!(rec.orig_len as usize, data.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Framing in place (over a `&[u8]`, and over `BufReader`s small
    /// enough that records straddle refills) yields exactly what the
    /// copying read yields, and a damaged tail fails with the same
    /// error after the same records on every path.
    #[test]
    fn in_place_framing_matches_copied_framing(
        records in prop::collection::vec(arb_record(), 0..40),
        big_endian in any::<bool>(),
        nano in any::<bool>(),
        tail_kind in 0u8..4,
        cut in 1usize..16,
        implausible in (MAX_SANE_CAPLEN + 1)..=u32::MAX,
    ) {
        let word = |v: u32| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
        let mut tail = Vec::new();
        let expect_err = match tail_kind {
            0 => None,
            // A record header cut after `cut` bytes.
            1 => {
                tail.extend_from_slice(&[0x5a; 16][..cut]);
                Some(PacketError::Truncated { needed: 16, got: cut })
            }
            // A record body cut `cut` bytes short.
            2 => {
                for field in [1, 0, 20, 20] {
                    tail.extend_from_slice(&word(field));
                }
                tail.extend_from_slice(&[0xa5; 20][..20 - cut]);
                Some(PacketError::Io(String::new())) // any message
            }
            // A captured length no sane capture has.
            _ => {
                for field in [1, 0, implausible, implausible] {
                    tail.extend_from_slice(&word(field));
                }
                Some(PacketError::ImplausibleCaptureLen(implausible))
            }
        };
        let buf = capture(&records, big_endian, nano, &tail);

        let copied = read_copied(&buf);
        // The copying read itself against the generated records.
        let expected: Vec<(u64, u32, Vec<u8>)> = records
            .iter()
            .map(|(secs, subsec, orig_len, data)| {
                let sub_ns = if nano { u64::from(*subsec) } else { u64::from(*subsec) * 1_000 };
                (u64::from(*secs) * 1_000_000_000 + sub_ns, *orig_len, data.clone())
            })
            .collect();
        prop_assert_eq!(&copied.0, &expected);
        match (&copied.1, &expect_err) {
            (Some(PacketError::Io(_)), Some(PacketError::Io(_))) => {}
            (got, want) => prop_assert_eq!(got, want),
        }

        prop_assert_eq!(&read_in_place(&buf[..]), &copied);
        for capacity in [16, 17, 100, 1500, 8192] {
            let buffered = read_in_place(BufReader::with_capacity(capacity, &buf[..]));
            prop_assert_eq!(&buffered, &copied, "BufReader capacity {}", capacity);
        }
    }
}
