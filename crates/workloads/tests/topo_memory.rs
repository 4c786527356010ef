//! What the harness's spec of a simulated Internet costs. A
//! [`ScaleTopo`] keeps one compact row per session end and one session
//! config per role; a spec that owned a policy per session end would
//! keep its rule lists 320,176 times on the full preset, more than the
//! converged speakers' route state. A test binary of its own because it
//! installs a counting global allocator.

#[path = "../../bgp/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;
use peering_topology::{Internet, InternetConfig};
use peering_workloads::ScaleTopo;

/// Live bytes a `ScaleTopo` of the small preset keeps per session end,
/// what it keeps per node and per role included. Measured 47 bytes
/// (x86-64): 24 for the row, the rest per node. A spec that kept a
/// `PeerConfig` with a policy pair of its own per session end kept 776.
const BYTES_PER_SESSION_END: i64 = 64;

#[test]
fn a_scale_topology_keeps_a_compact_row_per_session_end() {
    let net = Internet::build(InternetConfig::small(42));
    let before = live_bytes();
    let topo = ScaleTopo::from_internet(&net, 8);
    let kept = live_bytes() - before;
    let ends = 2 * topo.session_count() as i64;
    assert!(ends > 0, "the small preset has sessions");
    let per_end = kept / ends;
    assert!(
        per_end <= BYTES_PER_SESSION_END,
        "{kept} bytes over {ends} session ends: {per_end} each, over the budget of \
         {BYTES_PER_SESSION_END}"
    );
}
