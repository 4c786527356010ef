//! [`TraceId`]: the identity that threads causal update provenance
//! through the whole stack.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of one originated routing change (announcement or withdrawal).
///
/// Minted once at the originating speaker and carried — out of band of the
/// wire messages, so behaviour is unperturbed — through Adj-RIB-In, the
/// decision process, and Adj-RIB-Out at every hop. The collector keys its
/// propagation DAGs on it. The packing is deterministic: origin ASN in the
/// high 32 bits, a per-origin sequence number in the low 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mint the `seq`-th trace id originated by `origin_asn`.
    pub fn new(origin_asn: u32, seq: u32) -> Self {
        TraceId((u64::from(origin_asn) << 32) | u64::from(seq))
    }

    /// The ASN that originated the traced change.
    pub fn origin_asn(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Per-origin sequence number of the traced change.
    pub fn seq(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}-{}", self.origin_asn(), self.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_packs_origin_and_sequence() {
        let id = TraceId::new(65001, 7);
        assert_eq!(id.origin_asn(), 65001);
        assert_eq!(id.seq(), 7);
        assert_eq!(id.to_string(), "t65001-7");
        assert!(TraceId::new(65001, 7) < TraceId::new(65001, 8));
        assert!(TraceId::new(65001, 9) < TraceId::new(65002, 0));
    }
}
