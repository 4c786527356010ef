//! The route collector: vantage-point archives over a provenance stream.
//!
//! A [`Collector`] plays the role RouteViews and RIPE RIS play for the
//! real Internet: designated vantage ASes record the full BGP update
//! feed they hear, plus periodic RIB snapshots, in MRT form. Here the
//! feed comes from the shared [`ProvenanceLog`] every speaker in an
//! emulation writes into, so attaching a collector is one call and the
//! archive is exactly what the vantage heard, delivery-ordered.
//!
//! Attachment is observational: speakers mint trace ids whether or not a
//! collector listens, so collector-backed runs converge bit-identically
//! to bare runs (the workloads crate pins this).

use crate::mrt::{Bgp4mpMessage, MrtError, PeerEntry, PeerIndexTable, RibEntryRecord, RibPath};
use peering_bgp::wire::{encode_message, WireConfig};
use peering_bgp::{
    BgpMessage, Nlri, PeerId, ProvenanceEvent, ProvenanceLog, ProvenanceRecord, Route, Speaker,
    UpdateMessage,
};
use peering_emulation::Emulation;
use peering_netsim::Asn;
use peering_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A route collector over one emulation run.
#[derive(Debug, Clone)]
pub struct Collector {
    log: ProvenanceLog,
    telemetry: Telemetry,
    vantages: BTreeSet<Asn>,
    router_ids: BTreeMap<Asn, Ipv4Addr>,
}

impl Collector {
    /// A collector with an enabled provenance log and no vantages yet.
    pub fn new() -> Self {
        Collector {
            log: ProvenanceLog::new(),
            telemetry: Telemetry::disabled(),
            vantages: BTreeSet::new(),
            router_ids: BTreeMap::new(),
        }
    }

    /// Mirror archive-size counters into a telemetry registry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Designate `asn` as a vantage point (idempotent).
    pub fn add_vantage(&mut self, asn: Asn) -> &mut Self {
        self.vantages.insert(asn);
        self
    }

    /// The designated vantage ASes, ascending.
    pub fn vantages(&self) -> impl Iterator<Item = Asn> + '_ {
        self.vantages.iter().copied()
    }

    /// A handle onto the shared provenance stream (attach it yourself if
    /// not using [`attach`](Self::attach)).
    pub fn log(&self) -> ProvenanceLog {
        self.log.clone()
    }

    /// Wire the collector into an emulation: every hosted daemon starts
    /// writing provenance records into this collector's stream, and the
    /// collector learns each AS's router id for MRT headers.
    pub fn attach(&mut self, emu: &mut Emulation) {
        for idx in 0..emu.container_count() {
            if let Some(d) = emu.daemon(idx) {
                self.router_ids.insert(d.asn(), d.config().router_id);
            }
        }
        emu.set_provenance(self.log.clone());
    }

    /// Every provenance record collected so far, in recording order.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        self.log.records()
    }

    /// The router id recorded for `asn`; synthesized from the ASN when
    /// the collector never saw that speaker (deterministic either way).
    pub fn router_id(&self, asn: Asn) -> Ipv4Addr {
        self.router_ids
            .get(&asn)
            .copied()
            .unwrap_or_else(|| Ipv4Addr::from(asn.0))
    }

    /// The update feed heard at `vantage`: every UPDATE delivered to it,
    /// delivery-ordered, as MRT-ready messages.
    pub fn update_feed(&self, vantage: Asn) -> Vec<Bgp4mpMessage> {
        self.log
            .records()
            .into_iter()
            .filter(|r| r.node_asn == vantage)
            .filter_map(|r| match r.event {
                ProvenanceEvent::Feed {
                    from_asn, update, ..
                } => Some(Bgp4mpMessage {
                    time: r.time,
                    peer_asn: from_asn,
                    local_asn: vantage,
                    peer_ip: self.router_id(from_asn),
                    local_ip: self.router_id(vantage),
                    msg: BgpMessage::Update(update),
                }),
                _ => None,
            })
            .collect()
    }

    /// Encode `vantage`'s update feed as one MRT archive. Byte-
    /// deterministic: same run, same bytes.
    pub fn update_archive(&self, vantage: Asn, cfg: WireConfig) -> Result<Vec<u8>, MrtError> {
        let feed = self.update_feed(vantage);
        let mut out = Vec::new();
        for m in &feed {
            m.to_record(cfg)?.encode(&mut out);
        }
        self.telemetry
            .counter_add("collector.feed.records", feed.len() as u64);
        self.telemetry
            .counter_add("collector.feed.bytes", out.len() as u64);
        Ok(out)
    }

    /// Dump `vantage`'s current tables as a `TABLE_DUMP_V2` archive:
    /// one `PEER_INDEX_TABLE` (self at index 0, then neighbors by peer
    /// id) followed by one RIB record per Loc-RIB prefix.
    pub fn rib_dump(
        &self,
        emu: &Emulation,
        vantage: Asn,
        cfg: WireConfig,
    ) -> Result<Vec<u8>, MrtError> {
        let speaker = find_speaker(emu, vantage)
            .ok_or(MrtError::Truncated("vantage speaker not in emulation"))?;
        let now = emu.now();
        let mut out = Vec::new();

        let mut neighbor_ids: Vec<PeerId> = speaker.peer_ids().collect();
        neighbor_ids.sort();
        let mut peers = vec![PeerEntry {
            bgp_id: self.router_id(vantage),
            ip: self.router_id(vantage),
            asn: vantage,
        }];
        let mut index_of: BTreeMap<PeerId, u16> = BTreeMap::new();
        index_of.insert(PeerId::LOCAL, 0);
        for (i, id) in neighbor_ids.iter().enumerate() {
            let asn = speaker.peer_asn(*id).unwrap_or(Asn(0));
            peers.push(PeerEntry {
                bgp_id: self.router_id(asn),
                ip: self.router_id(asn),
                asn,
            });
            index_of.insert(*id, (i + 1) as u16);
        }
        PeerIndexTable {
            collector_id: self.router_id(vantage),
            view_name: format!("as{}", vantage.0),
            peers,
        }
        .to_record(now)
        .encode(&mut out);

        let mut entries = 0u64;
        // Loc-RIB storage is hash-ordered; the archive must not be.
        let mut routes: Vec<&Route> = speaker.loc_rib().iter().collect();
        routes.sort_by_key(|r| r.prefix);
        for (seq, route) in routes.into_iter().enumerate() {
            let rec = RibEntryRecord {
                v6: !route.prefix.is_v4(),
                seq: seq as u32,
                paths: vec![rib_path(route, &index_of, cfg)?],
            };
            rec.to_record(now).encode(&mut out);
            entries += 1;
        }
        self.telemetry.counter_add("collector.rib.entries", entries);
        self.telemetry
            .counter_add("collector.rib.bytes", out.len() as u64);
        Ok(out)
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

/// Find the hosted speaker whose ASN is `asn`.
fn find_speaker(emu: &Emulation, asn: Asn) -> Option<&Speaker> {
    (0..emu.container_count())
        .filter_map(|i| emu.daemon(i))
        .find(|d| d.asn() == asn)
}

/// Encode one Loc-RIB route as a RIB dump path.
fn rib_path(
    route: &Route,
    index_of: &BTreeMap<PeerId, u16>,
    cfg: WireConfig,
) -> Result<RibPath, MrtError> {
    let nlri = if cfg.add_path {
        Nlri::with_path_id(route.prefix, route.path_id)
    } else {
        Nlri::plain(route.prefix)
    };
    let update = encode_message(
        &BgpMessage::Update(UpdateMessage::announce(
            Arc::clone(&route.attrs),
            vec![nlri],
        )),
        cfg,
    )?;
    Ok(RibPath {
        peer_index: index_of.get(&route.peer).copied().unwrap_or(0),
        originated_s: (route.learned_at.as_micros() / 1_000_000) as u32,
        update,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrt::{decode_all, MRT_TYPE_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE};
    use peering_bgp::Prefix;
    use peering_emulation::flat_mesh;

    /// A 3-node line: r0 — r1 — r2, each originating one prefix.
    fn line(seed: u64) -> Emulation {
        let mut emu = flat_mesh("line", 3, &[(0, 1), (1, 2)], seed);
        emu.start_all();
        for i in 0..3 {
            emu.control(i, |d, now| {
                d.originate(Prefix::v4(10, 60, i as u8, 0, 24), now)
            });
        }
        emu
    }

    #[test]
    fn attached_collector_archives_the_vantage_feed() {
        let mut emu = line(5);
        let mut collector = Collector::new();
        collector.add_vantage(Asn(65003));
        collector.attach(&mut emu);
        emu.run_until_quiet(usize::MAX);

        let feed = collector.update_feed(Asn(65003));
        assert!(!feed.is_empty(), "vantage heard updates");
        // Everything the vantage heard came from its one neighbor.
        assert!(feed.iter().all(|m| m.peer_asn == Asn(65002)));
        assert!(feed
            .iter()
            .all(|m| m.local_ip == Ipv4Addr::new(10, 0, 0, 2)));
        // Delivery-ordered.
        assert!(feed.windows(2).all(|w| w[0].time <= w[1].time));

        let cfg = WireConfig::default();
        let archive = collector.update_archive(Asn(65003), cfg).expect("archive");
        let records = decode_all(&archive).expect("well-formed archive");
        assert_eq!(records.len(), feed.len());
        let back = Bgp4mpMessage::from_record(&records[0], cfg).expect("decode");
        assert_eq!(back, feed[0]);
    }

    #[test]
    fn archives_are_byte_deterministic_across_runs() {
        let build = || {
            let mut emu = line(5);
            let mut c = Collector::new();
            c.add_vantage(Asn(65001));
            c.attach(&mut emu);
            emu.run_until_quiet(usize::MAX);
            let cfg = WireConfig::default();
            let mut bytes = c.update_archive(Asn(65001), cfg).expect("feed");
            bytes.extend(c.rib_dump(&emu, Asn(65001), cfg).expect("rib"));
            bytes
        };
        assert_eq!(build(), build(), "same seed, same archive bytes");
    }

    #[test]
    fn rib_dump_covers_the_loc_rib() {
        let mut emu = line(9);
        let mut collector = Collector::new();
        collector.attach(&mut emu);
        emu.run_until_quiet(usize::MAX);

        let cfg = WireConfig::default();
        let dump = collector.rib_dump(&emu, Asn(65002), cfg).expect("dump");
        let records = decode_all(&dump).expect("well-formed dump");
        assert_eq!(records[0].rtype, MRT_TYPE_TABLE_DUMP_V2);
        assert_eq!(records[0].subtype, TDV2_PEER_INDEX_TABLE);
        let table = PeerIndexTable::from_record(&records[0]).expect("peer table");
        assert_eq!(table.view_name, "as65002");
        // Self plus two neighbors.
        assert_eq!(table.peers.len(), 3);
        assert_eq!(table.peers[0].asn, Asn(65002));

        // One RIB record per Loc-RIB prefix (3 originated prefixes).
        let middle = find_speaker(&emu, Asn(65002)).expect("speaker");
        assert_eq!(records.len() - 1, middle.loc_rib().len());
        for rec in &records[1..] {
            let entry = RibEntryRecord::from_record(rec).expect("entry");
            assert_eq!(entry.paths.len(), 1);
            let (msg, _) =
                peering_bgp::wire::decode_message(&entry.paths[0].update, cfg).expect("update");
            assert!(matches!(msg, BgpMessage::Update(_)));
        }
    }

    #[test]
    fn telemetry_counts_archive_sizes() {
        let mut emu = line(3);
        let telemetry = Telemetry::new();
        let mut collector = Collector::new().with_telemetry(telemetry.clone());
        collector.attach(&mut emu);
        emu.run_until_quiet(usize::MAX);
        let cfg = WireConfig::default();
        let archive = collector.update_archive(Asn(65001), cfg).expect("archive");
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("collector.feed.bytes"), archive.len() as u64);
        assert!(snap.counter("collector.feed.records") > 0);
    }
}
