//! The Alexa-Top-N content catalog and DNS simulation.
//!
//! §4.1's reachability study: "we performed DNS lookups for the Alexa Top
//! 500 URLs... those 500 pages included 49,776 resources from 4,182
//! distinct FQDNs. We ran DNS lookups... resulting in 2,757 distinct IP
//! addresses. Reflecting the fact that we peer with major CDNs and
//! content providers, we have peer routes to 1,055 of the 2,757
//! addresses."
//!
//! The generator reproduces the *structure* behind those numbers: pages
//! embed many resources; resources concentrate on a Zipf-heavy pool of
//! FQDNs; FQDN hosting concentrates on CDN/content ASes (Sandvine 2014:
//! YouTube + Netflix alone were 47% of North American traffic), which are
//! exactly the ASes that peer openly at IXPs.

use peering_netsim::{Prefix, SimRng};
use peering_topology::{AsGraph, AsIdx, AsKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Catalog generator parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of ranked sites (the paper uses 500).
    pub n_sites: usize,
    /// Mean embedded resources per page (the paper's 500 pages carried
    /// 49,776 resources ≈ 100/page).
    pub mean_resources: f64,
    /// Size of the shared FQDN pool (paper: 4,182).
    pub fqdn_pool: usize,
    /// Probability a FQDN is hosted on a content/CDN AS.
    pub cdn_hosting_share: f64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            seed: 1,
            n_sites: 500,
            mean_resources: 100.0,
            fqdn_pool: 4182,
            cdn_hosting_share: 0.45,
        }
    }
}

/// A hostname with its hosting AS and resolved addresses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fqdn {
    /// The name ("cdn3.example-17.com").
    pub name: String,
    /// The AS hosting it.
    pub host_as: AsIdx,
    /// Its A records.
    pub addrs: Vec<Ipv4Addr>,
}

/// One ranked site: a front page plus embedded resources.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WebSite {
    /// Popularity rank (0 = most popular).
    pub rank: usize,
    /// Index of its front-page FQDN.
    pub main_fqdn: usize,
    /// FQDN index per embedded resource.
    pub resources: Vec<usize>,
}

/// The generated catalog.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentCatalog {
    /// Ranked sites.
    pub sites: Vec<WebSite>,
    /// The FQDN pool (front pages first, then resource hosts).
    pub fqdns: Vec<Fqdn>,
}

impl ContentCatalog {
    /// Generate a catalog over the given Internet.
    pub fn generate(g: &AsGraph, cfg: &CatalogConfig) -> ContentCatalog {
        let mut rng = SimRng::new(cfg.seed).fork("alexa-catalog");
        let contents: Vec<AsIdx> = g
            .infos()
            .filter(|(_, i)| i.kind == AsKind::Content)
            .map(|(idx, _)| idx)
            .collect();
        let other_hosts: Vec<AsIdx> = g
            .infos()
            .filter(|(_, i)| {
                matches!(
                    i.kind,
                    AsKind::Access | AsKind::Enterprise | AsKind::Transit | AsKind::Stub
                )
            })
            .map(|(idx, _)| idx)
            .collect();
        assert!(!contents.is_empty() && !other_hosts.is_empty());

        let pick_host = |rng: &mut SimRng| -> AsIdx {
            if rng.chance(cfg.cdn_hosting_share) {
                // Zipf across CDNs: traffic concentrates on a few.
                contents[rng.zipf(contents.len(), 1.1)]
            } else {
                other_hosts[rng.index(other_hosts.len())]
            }
        };
        let addr_in = |g: &AsGraph, host: AsIdx, rng: &mut SimRng| -> Ipv4Addr {
            let info = g.info(host);
            if info.prefixes.is_empty() {
                return Ipv4Addr::new(198, 18, (host.0 >> 8) as u8, host.0 as u8);
            }
            let p = &info.prefixes[rng.index(info.prefixes.len())];
            match p {
                Prefix::V4(net) => net.addr_at(1 + rng.below(200) as u32),
                Prefix::V6(_) => Ipv4Addr::new(198, 18, 0, 1),
            }
        };

        // FQDN pool: the first n_sites entries are front pages.
        let total_fqdns = cfg.fqdn_pool.max(cfg.n_sites);
        let mut fqdns = Vec::with_capacity(total_fqdns);
        for i in 0..total_fqdns {
            let host = pick_host(&mut rng);
            let n_addrs = 1 + rng.index(3);
            let addrs = (0..n_addrs).map(|_| addr_in(g, host, &mut rng)).collect();
            let name = if i < cfg.n_sites {
                format!("www.site-{i}.example")
            } else {
                format!("res-{i}.cdn.example")
            };
            fqdns.push(Fqdn {
                name,
                host_as: host,
                addrs,
            });
        }

        // Sites embed resources drawn Zipf-style from the pool, so a few
        // shared CDN names dominate (fonts/analytics/cdn libs).
        let mut sites = Vec::with_capacity(cfg.n_sites);
        for rank in 0..cfg.n_sites {
            let n_res = (rng.exp(cfg.mean_resources).round() as usize).clamp(3, 600);
            let resources = (0..n_res).map(|_| rng.zipf(total_fqdns, 0.9)).collect();
            sites.push(WebSite {
                rank,
                main_fqdn: rank,
                resources,
            });
        }
        ContentCatalog { sites, fqdns }
    }

    /// DNS: resolve a FQDN index to its addresses.
    pub fn resolve(&self, fqdn: usize) -> &[Ipv4Addr] {
        &self.fqdns[fqdn].addrs
    }

    /// DNS: resolve by name.
    pub fn resolve_name(&self, name: &str) -> Option<&[Ipv4Addr]> {
        self.fqdns
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.addrs.as_slice())
    }

    /// Total embedded resources across all pages.
    pub fn total_resources(&self) -> usize {
        self.sites.iter().map(|s| s.resources.len()).sum()
    }

    /// Distinct FQDNs actually referenced by any page (front or resource).
    pub fn distinct_fqdns_used(&self) -> usize {
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for s in &self.sites {
            used.insert(s.main_fqdn);
            used.extend(s.resources.iter().copied());
        }
        used.len()
    }

    /// §4.1 coverage stats against a set of peer-reachable ASes:
    /// `(sites_covered, resources, distinct_fqdns, distinct_ips,
    /// ips_covered)`.
    pub fn coverage(&self, reachable: &BTreeSet<AsIdx>) -> CatalogCoverage {
        let sites_covered = self
            .sites
            .iter()
            .filter(|s| reachable.contains(&self.fqdns[s.main_fqdn].host_as))
            .count();
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for s in &self.sites {
            used.insert(s.main_fqdn);
            used.extend(s.resources.iter().copied());
        }
        let mut ip_host: BTreeMap<Ipv4Addr, AsIdx> = BTreeMap::new();
        for &f in &used {
            for &a in &self.fqdns[f].addrs {
                ip_host.insert(a, self.fqdns[f].host_as);
            }
        }
        let ips_covered = ip_host
            .iter()
            .filter(|(_, host)| reachable.contains(host))
            .count();
        CatalogCoverage {
            sites: self.sites.len(),
            sites_covered,
            resources: self.total_resources(),
            distinct_fqdns: used.len(),
            distinct_ips: ip_host.len(),
            ips_covered,
        }
    }
}

/// The §4.1 reachability numbers for a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogCoverage {
    /// Ranked sites in the catalog.
    pub sites: usize,
    /// Sites whose front page is peer-reachable.
    pub sites_covered: usize,
    /// Total embedded resources.
    pub resources: usize,
    /// Distinct FQDNs referenced.
    pub distinct_fqdns: usize,
    /// Distinct resolved addresses.
    pub distinct_ips: usize,
    /// Addresses hosted in peer-reachable ASes.
    pub ips_covered: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_topology::{Internet, InternetConfig};

    fn catalog() -> (Internet, ContentCatalog) {
        let net = Internet::build(InternetConfig::small(1));
        let cfg = CatalogConfig {
            n_sites: 50,
            fqdn_pool: 400,
            ..Default::default()
        };
        let cat = ContentCatalog::generate(&net.graph, &cfg);
        (net, cat)
    }

    #[test]
    fn shape_matches_config() {
        let (_, cat) = catalog();
        assert_eq!(cat.sites.len(), 50);
        assert_eq!(cat.fqdns.len(), 400);
        let total = cat.total_resources();
        // ~100/page * 50 pages, exponential spread.
        assert!((2000..12000).contains(&total), "total={total}");
        assert!(cat.distinct_fqdns_used() <= 400);
        assert!(cat.distinct_fqdns_used() > 50);
    }

    #[test]
    fn resolution_works() {
        let (_, cat) = catalog();
        assert!(!cat.resolve(0).is_empty());
        let name = cat.fqdns[0].name.clone();
        assert_eq!(cat.resolve_name(&name).unwrap(), cat.resolve(0));
        assert!(cat.resolve_name("nonexistent.example").is_none());
    }

    #[test]
    fn addresses_fall_in_host_prefixes() {
        let (net, cat) = catalog();
        let mut checked = 0;
        for f in &cat.fqdns {
            let info = net.graph.info(f.host_as);
            for a in &f.addrs {
                let inside = info.prefixes.iter().any(|p| match p {
                    Prefix::V4(n) => n.contains(*a),
                    Prefix::V6(_) => false,
                });
                assert!(inside, "{a} not in {}'s prefixes", info.asn);
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn cdn_concentration_is_visible() {
        let (net, cat) = catalog();
        let content_hosted = cat
            .fqdns
            .iter()
            .filter(|f| net.graph.info(f.host_as).kind == AsKind::Content)
            .count();
        let share = content_hosted as f64 / cat.fqdns.len() as f64;
        assert!((0.3..0.6).contains(&share), "share={share}");
    }

    #[test]
    fn coverage_monotone_in_reachable_set() {
        let (net, cat) = catalog();
        let nothing: BTreeSet<AsIdx> = BTreeSet::new();
        let everything: BTreeSet<AsIdx> = net.graph.indices().collect();
        let none = cat.coverage(&nothing);
        let all = cat.coverage(&everything);
        assert_eq!(none.sites_covered, 0);
        assert_eq!(none.ips_covered, 0);
        assert_eq!(all.sites_covered, cat.sites.len());
        assert_eq!(all.ips_covered, all.distinct_ips);
        // Partial set: cover only content ASes.
        let cdns: BTreeSet<AsIdx> = net
            .graph
            .infos()
            .filter(|(_, i)| i.kind == AsKind::Content)
            .map(|(idx, _)| idx)
            .collect();
        let partial = cat.coverage(&cdns);
        assert!(partial.sites_covered > 0);
        assert!(partial.sites_covered < cat.sites.len());
        assert!(partial.ips_covered > 0);
        assert!(partial.ips_covered < partial.distinct_ips);
    }

    #[test]
    fn deterministic_by_seed() {
        let net = Internet::build(InternetConfig::small(1));
        let cfg = CatalogConfig::default();
        let a = ContentCatalog::generate(&net.graph, &cfg);
        let b = ContentCatalog::generate(&net.graph, &cfg);
        assert_eq!(a.total_resources(), b.total_resources());
        assert_eq!(a.fqdns.len(), b.fqdns.len());
        assert_eq!(a.fqdns[7].addrs, b.fqdns[7].addrs);
    }
}
