//! Op streams: the queries each workload asks, the seeded orders it
//! asks them in, and the read-write workload's write script.

use crate::{program, BenchError};
use blas::{BlasDb, BlasError};
use blas_datagen::{query_set, xmark_benchmark, DatasetId};
use std::collections::VecDeque;

/// SplitMix64: a small seeded generator, so op streams depend only on
/// the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The hot set: Fig. 10 QA1–QA3 and XMark Q1, Q2, Q4, Q5, Q6.
pub fn hot_queries() -> Vec<&'static str> {
    let fig10 = query_set(DatasetId::Auction).map(|q| q.xpath);
    let xmark = xmark_benchmark().map(|q| q.xpath);
    fig10.into_iter().chain(xmark).collect()
}

/// The query-mix set: the hot set plus the heavy suffix paths.
pub fn query_mix_queries() -> Vec<&'static str> {
    let mut qs = hot_queries();
    qs.extend(["//listitem", "//text"]);
    qs
}

/// Index of the hot query whose recorded reply the codec probe uses
/// (QA2, 13,200 nodes at ×10).
pub const CODEC_QUERY: usize = 1;

/// A point-lookup template: entities per Auction scale unit, and the
/// query for entity `k`.
pub type Lookup = (u32, fn(u32) -> String);

/// Serve-mix's point lookups: persons, items and categories by name.
pub const LOOKUPS: [Lookup; 3] = [
    (850, |k| {
        format!("/site/people/person[name='Person {k}']/emailaddress")
    }),
    (6 * 220, |k| {
        format!("/site/regions//item[name='Item {k}']/description")
    }),
    (240, |k| {
        format!("/site/categories/category[name='Category {k}']/description//listitem")
    }),
];

/// `n` distinct point lookups drawn without replacement from every
/// entity of an Auction document at `scale`, as `(template, xpath)`.
pub fn lookup_pool(scale: u32, seed: u64, n: usize) -> Vec<(usize, String)> {
    let mut all: Vec<(usize, u32)> = LOOKUPS
        .iter()
        .enumerate()
        .flat_map(|(t, &(per_unit, _))| (0..per_unit * scale).map(move |k| (t, k)))
        .collect();
    Rng::new(seed, 0x100).shuffle(&mut all);
    all.truncate(n);
    all.into_iter()
        .map(|(t, k)| (t, (LOOKUPS[t].1)(k)))
        .collect()
}

/// Query-mix order: back-to-back seeded permutations of the query set.
#[derive(Debug)]
pub struct ShuffleStream {
    rng: Rng,
    block: Vec<usize>,
    pos: usize,
}

impl ShuffleStream {
    /// A stream over `0..n`.
    pub fn new(seed: u64, n: usize) -> ShuffleStream {
        ShuffleStream {
            rng: Rng::new(seed, 1),
            block: (0..n).collect(),
            pos: n,
        }
    }
}

impl Iterator for ShuffleStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.block.len() {
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.block[self.pos - 1])
    }
}

/// Lookup-mix order: 80% uniform over the `hot` first entries of the
/// op table, 20% the lookups in turn (each lookup recurs only after
/// every other one has been asked).
#[derive(Debug)]
pub struct LookupStream {
    rng: Rng,
    hot: usize,
    lookups: Vec<usize>,
    next_lookup: usize,
}

impl LookupStream {
    /// A stream whose lookups are `lookups` (op-table indices).
    pub fn new(seed: u64, hot: usize, lookups: Vec<usize>) -> LookupStream {
        LookupStream {
            rng: Rng::new(seed, 2),
            hot,
            lookups,
            next_lookup: 0,
        }
    }
}

impl Iterator for LookupStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if !self.lookups.is_empty() && self.rng.below(5) == 0 {
            let i = self.lookups[self.next_lookup % self.lookups.len()];
            self.next_lookup += 1;
            Some(i)
        } else {
            Some(self.rng.below(self.hot))
        }
    }
}

/// Read-write: one op in `WRITE_EVERY` is a write.
pub const WRITE_EVERY: u64 = 20;
/// Read-write: background compaction after every `COMPACT_EVERY` writes.
pub const COMPACT_EVERY: u64 = 50;
/// The tag retags rename a `price` to.
pub const RETAG_TO: &str = "reserve";

/// One mutation of the write script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Append a `closed_auction` under `closed_auctions`.
    Insert {
        /// `start` of `closed_auctions`.
        parent: u32,
        /// The fragment.
        xml: String,
    },
    /// Rename the newest insert's `price` to [`RETAG_TO`].
    Retag {
        /// `start` of the `price` node.
        start: u32,
    },
    /// Delete the oldest live insert.
    Delete {
        /// `start` of the `closed_auction`.
        start: u32,
    },
}

impl WriteOp {
    /// `insert`, `retag` or `delete`.
    pub fn kind(&self) -> &'static str {
        match self {
            WriteOp::Insert { .. } => "insert",
            WriteOp::Retag { .. } => "retag",
            WriteOp::Delete { .. } => "delete",
        }
    }

    /// Apply in-process; returns the published generation.
    pub fn apply(&self, db: &BlasDb) -> Result<u64, BlasError> {
        match self {
            WriteOp::Insert { parent, xml } => db.insert_subtree(*parent, xml),
            WriteOp::Retag { start } => db.retag(*start, RETAG_TO),
            WriteOp::Delete { start } => db.delete(*start),
        }
    }
}

/// The write script: inserts, retags and deletes in rotation, with
/// targets resolved on a database that has applied every earlier
/// write (the twin).
#[derive(Debug)]
pub struct Script {
    closed_auctions: u32,
    live: VecDeque<u32>,
    newest_price: Option<u32>,
    issued: u64,
}

const CLOSED_AUCTIONS: &str = "/site/closed_auctions";
const CLOSED_AUCTION: &str = "/site/closed_auctions/closed_auction";
const CLOSED_PRICE: &str = "/site/closed_auctions/closed_auction/price";

impl Script {
    /// A script for `db` as loaded.
    pub fn new(db: &BlasDb) -> Result<Script, BenchError> {
        let r = db
            .query(CLOSED_AUCTIONS, crate::check::reference_choice())
            .map_err(program(CLOSED_AUCTIONS))?;
        let parent = r
            .nodes
            .first()
            .ok_or_else(|| BenchError::Program("no closed_auctions".into()))?;
        Ok(Script {
            closed_auctions: parent.start,
            live: VecDeque::new(),
            newest_price: None,
            issued: 0,
        })
    }

    /// The next write: insert, retag, delete in turn (an insert when
    /// the turn has no target).
    pub fn next_op(&mut self) -> WriteOp {
        let i = self.issued;
        self.issued += 1;
        match (i % 3, self.newest_price.take(), self.live.front()) {
            (1, Some(start), _) => WriteOp::Retag { start },
            (2, _, Some(_)) => WriteOp::Delete {
                start: self.live.pop_front().unwrap_or_default(),
            },
            _ => WriteOp::Insert {
                parent: self.closed_auctions,
                xml: fragment(i),
            },
        }
    }

    /// Record the effect of `op` once `db` has applied it.
    pub fn applied(&mut self, op: &WriteOp, db: &BlasDb) -> Result<(), BenchError> {
        self.newest_price = None;
        if let WriteOp::Insert { .. } = op {
            let last = |q: &str| -> Result<u32, BenchError> {
                let r = db
                    .query(q, crate::check::reference_choice())
                    .map_err(program(q))?;
                r.nodes
                    .last()
                    .map(|d| d.start)
                    .ok_or_else(|| BenchError::Program(format!("{q} is empty")))
            };
            let auction = last(CLOSED_AUCTION)?;
            let price = last(CLOSED_PRICE)?;
            if price < auction {
                return Err(BenchError::Program(
                    "inserted closed_auction has no price".into(),
                ));
            }
            self.live.push_back(auction);
            self.newest_price = Some(price);
        }
        Ok(())
    }
}

/// The `i`-th inserted `closed_auction`, built only from tags the
/// Auction tag table already holds.
fn fragment(i: u64) -> String {
    let (a, b, c) = (i % 350, (i * 7 + 3) % 350, (i * 13) % 540);
    format!(
        "<closed_auction><seller person=\"person{a}\"/><buyer person=\"person{b}\"/>\
         <itemref item=\"item{c}\"/><price>{}.50</price><date>09/02/2000</date>\
         <quantity>1</quantity><type>Regular</type><annotation><author>Person {a}</author>\
         <description><text>benchmark lot {i}</text></description><happiness>7</happiness>\
         </annotation></closed_auction>",
        10 + i % 90
    )
}
