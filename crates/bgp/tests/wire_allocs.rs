//! The encoder's allocation contract: every successful `encode_message`
//! makes exactly one allocation — the returned buffer, sized exactly —
//! for every message kind, OPEN included. Checked over the byte golden's
//! corpus; a test binary of its own because it installs a counting
//! global allocator.

mod counting_alloc;
mod wire_corpus;

use counting_alloc::allocations;
use peering_bgp::wire::encode_message;
use std::collections::BTreeSet;

#[test]
fn every_encoded_message_is_one_allocation() {
    let mut kinds = BTreeSet::new();
    for case in wire_corpus::corpus() {
        let before = allocations();
        let encoded = encode_message(&case.msg, case.cfg);
        let made = allocations() - before;
        if let Ok(bytes) = encoded {
            assert_eq!(
                made,
                1,
                "{}: {made} allocations for {} bytes",
                case.name,
                bytes.len()
            );
            kinds.insert(case.msg.kind());
        }
    }
    let want = [
        "KEEPALIVE",
        "NOTIFICATION",
        "OPEN",
        "ROUTE-REFRESH",
        "UPDATE",
    ];
    assert_eq!(kinds, BTreeSet::from(want), "every message kind encoded");
}
