//! Structural-join kernel: stack-based merge over start-sorted label
//! lists (the D-join primitive of §3.1 / Al-Khalifa et al.).
//!
//! Both engines reduce to this operation: given ancestor candidates `A`
//! and descendant candidates `D`, decide which elements of each side
//! participate in at least one containment pair
//! (`a.start < d.start ∧ a.end > d.end`, optionally
//! `d.level = a.level + k`). Because all labels come from one document
//! tree, intervals are well nested, and a single merge pass with an
//! ancestor stack visits each element O(depth) times.
//!
//! The kernel is allocation-free on the hot path: callers keep a
//! [`JoinScratch`] (flag vectors + ancestor stack) alive across joins
//! via [`structural_match_into`]; the [`structural_match`] wrapper
//! allocates fresh [`MatchFlags`] for one-shot use.

use crate::stream::{merge_sorted, MergeScratch};
use blas_labeling::DLabel;

/// Which elements of each input participate in a join pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchFlags {
    /// `anc[i]` ⇔ `a[i]` has a matching descendant.
    pub anc: Vec<bool>,
    /// `desc[j]` ⇔ `d[j]` has a matching ancestor.
    pub desc: Vec<bool>,
    /// Number of (a, d) pairs satisfying the predicate — the size of
    /// the intermediate result a pair-producing D-join would build.
    pub pairs: u64,
}

/// Reusable state for [`structural_match_into`]: the participation
/// flags of the last join plus the ancestor stack, so repeated joins
/// allocate nothing once the vectors reach steady-state capacity.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// `anc[i]` ⇔ `a[i]` has a matching descendant (last join).
    pub anc: Vec<bool>,
    /// `desc[j]` ⇔ `d[j]` has a matching ancestor (last join).
    pub desc: Vec<bool>,
    /// Join-pair count of the last join.
    pub pairs: u64,
    stack: Vec<usize>,
}

impl JoinScratch {
    /// Release any internal buffer whose capacity exceeds
    /// `max_elems`, so a long-lived holder (the per-thread scratch)
    /// does not pin the high-water footprint of the largest join it
    /// ever ran.
    pub fn trim(&mut self, max_elems: usize) {
        for flags in [&mut self.anc, &mut self.desc] {
            if flags.capacity() > max_elems {
                *flags = Vec::new();
            }
        }
        if self.stack.capacity() > max_elems {
            self.stack = Vec::new();
        }
    }
}

/// Run the structural join, writing participation flags into `scratch`
/// (cleared and resized; capacity is reused across calls). Inputs must
/// be sorted by `start` (document order); this is the invariant every
/// scan and operator in the engines maintains.
pub fn structural_match_into(
    a: &[DLabel],
    d: &[DLabel],
    level_diff: Option<u16>,
    scratch: &mut JoinScratch,
) {
    debug_assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
    debug_assert!(d.windows(2).all(|w| w[0].start <= w[1].start));
    scratch.anc.clear();
    scratch.anc.resize(a.len(), false);
    scratch.desc.clear();
    scratch.desc.resize(d.len(), false);
    scratch.pairs = 0;
    // Stack of indices into `a` whose intervals contain the current
    // position; nested by construction.
    let stack = &mut scratch.stack;
    stack.clear();
    let mut next_a = 0usize;
    for (j, dj) in d.iter().enumerate() {
        // Admit ancestors starting before this descendant.
        while next_a < a.len() && a[next_a].start < dj.start {
            while let Some(&top) = stack.last() {
                if a[top].end < a[next_a].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(next_a);
            next_a += 1;
        }
        // Retire ancestors that ended before this descendant.
        while let Some(&top) = stack.last() {
            if a[top].end < dj.start {
                stack.pop();
            } else {
                break;
            }
        }
        // Every remaining stack entry contains dj (well-nestedness:
        // start < dj.start and end > dj.start ⇒ end > dj.end).
        for &ai in stack.iter() {
            debug_assert!(a[ai].start < dj.start && a[ai].end > dj.end);
            let level_ok = match level_diff {
                Some(k) => a[ai].level + k == dj.level,
                None => true,
            };
            if level_ok {
                scratch.anc[ai] = true;
                scratch.desc[j] = true;
                scratch.pairs += 1;
            }
        }
    }
}

/// One-shot structural join returning freshly allocated flags (tests
/// and kernel benches; the engines use [`structural_match_into`]).
pub fn structural_match(a: &[DLabel], d: &[DLabel], level_diff: Option<u16>) -> MatchFlags {
    let mut scratch = JoinScratch::default();
    structural_match_into(a, d, level_diff, &mut scratch);
    MatchFlags { anc: scratch.anc, desc: scratch.desc, pairs: scratch.pairs }
}

/// Append the flagged elements to `out` (preserves order).
pub fn filter_flagged_into(items: &[DLabel], flags: &[bool], out: &mut Vec<DLabel>) {
    debug_assert_eq!(items.len(), flags.len());
    // Size the output exactly first: a result buffer starts empty, and
    // growing it by doubling would copy it several times over.
    out.reserve(flags.iter().filter(|&&keep| keep).count());
    out.extend(
        items
            .iter()
            .zip(flags)
            .filter_map(|(item, &keep)| keep.then_some(*item)),
    );
}

/// Keep only the flagged elements (preserves order).
pub fn filter_flagged(items: &[DLabel], flags: &[bool]) -> Vec<DLabel> {
    let mut out = Vec::with_capacity(items.len());
    filter_flagged_into(items, flags, &mut out);
    out
}

/// Restore start (document) order after a `(plabel, start)`-clustered
/// range scan returned as one flat buffer: split it into its ascending
/// runs and hand them to the k-way ordering kernel ([`merge_sorted`]).
/// Kept for callers (and the ablation bench) that do not track run
/// boundaries; the engines' scan path passes the runs themselves.
pub fn ensure_start_order(input: Vec<DLabel>) -> Vec<DLabel> {
    if input.windows(2).all(|w| w[0].start <= w[1].start) {
        return input;
    }
    let mut runs = Vec::new();
    let mut begin = 0;
    for i in 1..input.len() {
        if input[i].start < input[i - 1].start {
            runs.push(&input[begin..i]);
            begin = i;
        }
    }
    runs.push(&input[begin..]);
    let mut out = Vec::with_capacity(input.len());
    merge_sorted(&runs, &mut MergeScratch::default(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(start: u32, end: u32, level: u16) -> DLabel {
        DLabel { start, end, level }
    }

    #[test]
    fn basic_containment() {
        // a0 [0,10] contains d0 [2,3] and d1 [5,6]; a1 [12,20] contains d2 [13,14].
        let a = vec![l(0, 10, 1), l(12, 20, 1)];
        let d = vec![l(2, 3, 3), l(5, 6, 2), l(13, 14, 2), l(25, 26, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [true, true]);
        assert_eq!(f.desc, [true, true, true, false]);
        assert_eq!(f.pairs, 3);
    }

    #[test]
    fn level_constraint_filters() {
        let a = vec![l(0, 10, 1)];
        let d = vec![l(2, 3, 3), l(5, 6, 2)];
        let f = structural_match(&a, &d, Some(1));
        assert_eq!(f.anc, [true]);
        assert_eq!(f.desc, [false, true]);
        assert_eq!(f.pairs, 1);
    }

    #[test]
    fn nested_ancestors_all_match() {
        // a0 [0,20] ⊃ a1 [1,10] ⊃ d [2,3].
        let a = vec![l(0, 20, 1), l(1, 10, 2)];
        let d = vec![l(2, 3, 3)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [true, true]);
        assert_eq!(f.pairs, 2);
        // With level+1 only the inner ancestor matches.
        let f = structural_match(&a, &d, Some(1));
        assert_eq!(f.anc, [false, true]);
    }

    #[test]
    fn no_matches() {
        let a = vec![l(0, 3, 1)];
        let d = vec![l(5, 6, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [false]);
        assert_eq!(f.desc, [false]);
        assert_eq!(f.pairs, 0);
    }

    #[test]
    fn empty_inputs() {
        let f = structural_match(&[], &[l(1, 2, 1)], None);
        assert_eq!(f.desc, [false]);
        let f = structural_match(&[l(1, 4, 1)], &[], None);
        assert_eq!(f.anc, [false]);
    }

    #[test]
    fn equal_start_is_not_containment() {
        // Containment is strict: a.start < d.start.
        let a = vec![l(2, 9, 1)];
        let d = vec![l(2, 3, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.pairs, 0);
    }

    #[test]
    fn scratch_reuse_resets_state() {
        let mut scratch = JoinScratch::default();
        let a = vec![l(0, 10, 1)];
        let d = vec![l(2, 3, 2)];
        structural_match_into(&a, &d, None, &mut scratch);
        assert_eq!(scratch.anc, [true]);
        assert_eq!(scratch.pairs, 1);
        // Second join with disjoint inputs must not inherit flags.
        let a2 = vec![l(0, 1, 1), l(4, 5, 1)];
        let d2 = vec![l(7, 8, 2)];
        structural_match_into(&a2, &d2, None, &mut scratch);
        assert_eq!(scratch.anc, [false, false]);
        assert_eq!(scratch.desc, [false]);
        assert_eq!(scratch.pairs, 0);
    }

    #[test]
    fn ensure_start_order_no_op_when_sorted() {
        let v: Vec<DLabel> = (0..100).map(|i| l(i, i + 1, 1)).collect();
        assert_eq!(ensure_start_order(v.clone()), v);
        assert!(ensure_start_order(Vec::new()).is_empty());
    }

    #[test]
    fn ensure_start_order_merges_runs() {
        // Three interleaved ascending runs.
        let mut v = Vec::new();
        for run in 0..3u32 {
            for i in 0..40u32 {
                let s = i * 3 + run;
                v.push(l(s, s + 1, 2));
            }
        }
        let merged = ensure_start_order(v);
        assert_eq!(merged.len(), 120);
        assert!(merged.windows(2).all(|w| w[0].start <= w[1].start));
        let starts: Vec<u32> = merged.iter().map(|x| x.start).collect();
        assert_eq!(starts, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn ensure_start_order_handles_reverse_input() {
        let v: Vec<DLabel> = (0..50).rev().map(|i| l(i, i + 1, 1)).collect();
        let merged = ensure_start_order(v);
        assert!(merged.windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(merged.len(), 50);
    }

    #[test]
    fn ancestors_retired_between_siblings() {
        // a0 [0,4] must be popped before d at 6; a1 [5,9] takes over.
        let a = vec![l(0, 4, 1), l(5, 9, 1)];
        let d = vec![l(1, 2, 2), l(6, 7, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [true, true]);
        assert_eq!(f.desc, [true, true]);
        assert_eq!(f.pairs, 2);
    }
}
