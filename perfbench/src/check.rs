//! Answer checks: every reply is reduced to a node count plus an
//! order-sensitive checksum of its `(start, end, level)` labels and
//! compared with a reference answer from a manual engine.

use crate::{program, BenchError};
use blas::{BlasDb, DLabel, EngineChoice, Translator};
use std::fmt;

/// A reply reduced to what the check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Matched nodes.
    pub count: usize,
    /// Checksum of the labels in document order.
    pub checksum: u64,
}

impl Answer {
    fn fold(nodes: impl Iterator<Item = (u32, u32, u16)>) -> Answer {
        let mut count = 0;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (s, e, l) in nodes {
            count += 1;
            for word in [u64::from(s), u64::from(e), u64::from(l)] {
                h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Answer { count, checksum: h }
    }

    /// The answer an in-process query returned.
    pub fn of_labels(nodes: &[DLabel]) -> Answer {
        Self::fold(nodes.iter().map(|d| (d.start, d.end, d.level)))
    }

    /// The answer a wire reply carried.
    pub fn of_triples(nodes: &[(u32, u32, u16)]) -> Answer {
        Self::fold(nodes.iter().copied())
    }

    /// A different answer, for the self-test hook.
    pub fn corrupted(self) -> Answer {
        Answer {
            count: self.count,
            checksum: !self.checksum,
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nodes, checksum {:016x}", self.count, self.checksum)
    }
}

/// The manual engine references come from: relational engine, Push-up
/// translator — a different lowering from what `auto` picks for most
/// of the queries, and one that needs no schema graph.
pub fn reference_choice() -> EngineChoice {
    EngineChoice::rdbms().with_translator(Translator::PushUp)
}

/// The reference answer for `query` on `db`.
pub fn reference(db: &BlasDb, query: &str) -> Result<Answer, BenchError> {
    let r = db
        .query(query, reference_choice())
        .map_err(program(query))?;
    Ok(Answer::of_labels(&r.nodes))
}

/// Reference answers for a whole op table, computed on two threads.
pub fn references(db: &BlasDb, queries: &[String]) -> Result<Vec<Answer>, BenchError> {
    let half = queries.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = queries
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || chunk.iter().map(|q| reference(db, q)).collect::<Vec<_>>())
            })
            .collect();
        let mut out = Vec::with_capacity(queries.len());
        for part in parts {
            let answers = part
                .join()
                .map_err(|_| BenchError::Program("reference thread panicked".into()))?;
            for a in answers {
                out.push(a?);
            }
        }
        Ok(out)
    })
}

/// Compare a reply with its expected answer.
pub fn verify(
    query: &str,
    generation: impl fmt::Display,
    expected: Answer,
    got: Answer,
) -> Result<(), BenchError> {
    if expected == got {
        Ok(())
    } else {
        Err(BenchError::Mismatch {
            query: query.to_string(),
            generation: generation.to_string(),
            expected,
            got,
        })
    }
}
