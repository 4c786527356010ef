//! Wire-encoder byte golden: every message of the fixed corpus in
//! `wire_corpus/` hex-dumped (or its encode error) and pinned against
//! `goldens/wire_bytes.txt`.
//!
//! The encoder may be rewritten for speed, never for bytes: a rewrite
//! must leave this file byte-identical. Refresh with `UPDATE_GOLDENS=1
//! cargo test -p peering-bgp --test wire_golden` only after an
//! *intentional* wire change.

mod wire_corpus;

use peering_bgp::wire::encode_message;
use std::fmt::Write as _;

/// Hex, 32 bytes to a line.
fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for line in bytes.chunks(32) {
        for b in line {
            write!(s, "{b:02x}").expect("write");
        }
        s.push('\n');
    }
    s
}

#[test]
fn encoder_bytes_match_the_golden() {
    let mut rendered = String::new();
    for case in wire_corpus::corpus() {
        let tag = if case.cfg.add_path { " [add-path]" } else { "" };
        match encode_message(&case.msg, case.cfg) {
            Ok(bytes) => {
                writeln!(rendered, "# {}{tag}: {} bytes", case.name, bytes.len()).expect("write");
                rendered.push_str(&hex(&bytes));
            }
            Err(e) => writeln!(rendered, "# {}{tag}: error: {e}", case.name).expect("write"),
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/wire_bytes.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let on_disk = std::fs::read_to_string(&path).expect("golden; refresh with UPDATE_GOLDENS=1");
    for (i, (want, got)) in on_disk.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(want, got, "wire bytes drifted at line {}", i + 1);
    }
    let (want, got) = (on_disk.lines().count(), rendered.lines().count());
    assert_eq!(want, got, "wire golden length drifted");
}
