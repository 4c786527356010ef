//! `Ipv6Net` stores its address as big-endian `[u8; 16]`; this test
//! checks it against a reference that stores a `u128`, the layout it
//! replaced. Every observable — order, hash, text, JSON, the address
//! arithmetic and the trie's v6 order — must match the reference on
//! seeded random `(addr, len)` pairs, lengths 0, 64 and 128 included.

use peering_netsim::{Ipv6Net, Prefix, PrefixTrie, SimRng};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::Ipv6Addr;

/// The `u128` layout, with the derives `Ipv6Net` used to have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
struct Model {
    addr: u128,
    len: u8,
}

impl Model {
    fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len)
        }
    }

    fn new(addr: u128, len: u8) -> Model {
        Model {
            addr: addr & Model::mask(len),
            len,
        }
    }

    fn net(self) -> Ipv6Net {
        Ipv6Net::new(Ipv6Addr::from(self.addr), self.len)
    }

    fn text(self) -> String {
        format!("{}/{}", Ipv6Addr::from(self.addr), self.len)
    }

    fn contains(self, ip: u128) -> bool {
        ip & Model::mask(self.len) == self.addr
    }

    fn covers(self, other: Model) -> bool {
        other.len >= self.len && other.addr & Model::mask(self.len) == self.addr
    }

    fn subnets(self, sub_len: u8, max: usize) -> Vec<Model> {
        if sub_len < self.len {
            return Vec::new();
        }
        let exp = u32::from(sub_len - self.len);
        let count = if exp >= 64 { u64::MAX } else { 1u64 << exp };
        let step = 1u128.checked_shl(u32::from(128 - sub_len)).unwrap_or(0);
        (0..count.min(max as u64))
            .map(|i| Model::new(self.addr + u128::from(i) * step, sub_len))
            .collect()
    }
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn random_u128(rng: &mut SimRng) -> u128 {
    (u128::from(rng.below(u64::MAX)) << 64) | u128::from(rng.below(u64::MAX))
}

/// A length biased towards the edges: 0, 64 and 128 each about one
/// time in eight, otherwise uniform over `0..=128`.
fn random_len(rng: &mut SimRng) -> u8 {
    match rng.below(8) {
        0 => [0, 64, 128][rng.index(3)],
        _ => rng.below(129) as u8,
    }
}

/// Random networks drawn near a few shared bases, so that pairs nest,
/// collide and share long common prefixes often.
fn random_models(rng: &mut SimRng, n: usize) -> Vec<Model> {
    let bases: Vec<u128> = (0..4).map(|_| random_u128(rng)).collect();
    (0..n)
        .map(|_| {
            let base = bases[rng.index(bases.len())];
            let noise = random_u128(rng) >> rng.below(128);
            Model::new(base ^ noise, random_len(rng))
        })
        .collect()
}

#[test]
fn ipv6net_matches_the_u128_reference() {
    let mut rng = SimRng::new(0x1b6_2040);
    for _ in 0..200 {
        let models = random_models(&mut rng, 24);
        let nets: Vec<Ipv6Net> = models.iter().map(|m| m.net()).collect();
        for (m, n) in models.iter().zip(&nets) {
            assert_eq!(n.len(), m.len);
            assert_eq!(u128::from(n.network()), m.addr);
            assert_eq!(n.to_string(), m.text());
            assert_eq!(format!("{n:?}"), m.text());
            assert_eq!(n.to_string().parse::<Ipv6Net>().unwrap(), *n);
            assert_eq!(hash_of(n), hash_of(m), "{n}");

            let json = serde_json::to_string(n).unwrap();
            assert_eq!(json, serde_json::to_string(m).unwrap());
            assert_eq!(serde_json::from_str::<Ipv6Net>(&json).unwrap(), *n);
            let prefix = Prefix::V6(*n);
            let json = serde_json::to_string(&prefix).unwrap();
            assert_eq!(serde_json::from_str::<Prefix>(&json).unwrap(), prefix);

            let ip = m.addr ^ (random_u128(&mut rng) >> rng.below(128));
            assert_eq!(
                n.contains(Ipv6Addr::from(ip)),
                m.contains(ip),
                "{n} ∋ {ip:x}"
            );
            let i = random_u128(&mut rng) >> rng.below(128);
            assert_eq!(u128::from(n.addr_at(i)), m.addr.wrapping_add(i));

            let sub_len = m.len.saturating_add(rng.below(6) as u8).min(128);
            let subs: Vec<Model> = n
                .subnets(sub_len, 5)
                .iter()
                .map(|s| Model {
                    addr: u128::from(s.network()),
                    len: s.len(),
                })
                .collect();
            assert_eq!(subs, m.subnets(sub_len, 5), "{n} into /{sub_len}");
        }
        for (ma, na) in models.iter().zip(&nets) {
            for (mb, nb) in models.iter().zip(&nets) {
                assert_eq!(na.cmp(nb), ma.cmp(mb), "{na} vs {nb}");
                assert_eq!(na == nb, ma == mb);
                assert_eq!(na.covers(nb), ma.covers(*mb), "{na} covers {nb}");
                assert_eq!(na.overlaps(nb), ma.covers(*mb) || mb.covers(*ma));
            }
        }

        let mut trie = PrefixTrie::new();
        for n in &nets {
            trie.insert(Prefix::V6(*n), ());
        }
        let walked: Vec<Model> = trie
            .iter()
            .map(|(p, ())| match p {
                Prefix::V6(n) => Model {
                    addr: u128::from(n.network()),
                    len: n.len(),
                },
                Prefix::V4(_) => unreachable!("only v6 was inserted"),
            })
            .collect();
        let mut sorted = models.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(walked, sorted);
    }
}
