//! Support sets (Definition 3.12) and the sorted-set / bitset primitives the
//! miner relies on.
//!
//! A support set is the sorted list of granule positions (in `H`) where an
//! event, an event group or a pattern occurs. Keeping them sorted makes the
//! intersection used when growing event groups a linear merge.
//!
//! The bitset primitives ([`intersect_rows_into`], [`iter_set_bits`]) back
//! the level-2 relation adjacency matrix of
//! [`RelationAdjacency`](crate::hlh::RelationAdjacency): the extension set of
//! a (k−1)-group is the bitwise AND of its members' neighbor rows, walked as
//! set bits.

use stpm_timeseries::GranulePos;

/// A support set: sorted, duplicate-free granule positions.
pub type SupportSet = Vec<GranulePos>;

/// Size ratio beyond which the intersection routines switch from the linear
/// merge to galloping (exponential-probe) advance on the longer side. With a
/// ratio `r >= GALLOP_RATIO` the galloping cost `O(short · log r)` beats the
/// merge cost `O(short + long)`.
const GALLOP_RATIO: usize = 32;

/// First index `>= lo` whose value is not less than `target`, found by
/// galloping: probe at exponentially growing offsets, then binary-search the
/// bracketed window. `O(log distance)` instead of `O(distance)`.
// lint: hot-path
#[inline]
fn gallop(haystack: &[GranulePos], lo: usize, target: GranulePos) -> usize {
    let mut base = lo;
    let mut step = 1usize;
    while base + step < haystack.len() && haystack[base + step] < target {
        base += step;
        step <<= 1;
    }
    let hi = (base + step).min(haystack.len());
    base + haystack[base..hi].partition_point(|&v| v < target)
}

/// Whether the size skew between two sets puts the intersection in the
/// galloping regime (walk the short side, exponential-probe the long one)
/// rather than the linear-merge regime.
#[inline]
fn gallop_regime(a: &[GranulePos], b: &[GranulePos]) -> bool {
    let (short, long) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    short * GALLOP_RATIO <= long
}

/// The galloping intersection core both public variants monomorphize over:
/// reports every common value through `on_match(value, pos_in_a, pos_in_b)`.
/// Only called in the [`gallop_regime`]; the balanced regime runs
/// [`merge_positions`] instead.
// lint: hot-path
#[inline]
fn intersect_gallop<F: FnMut(GranulePos, usize, usize)>(
    a: &[GranulePos],
    b: &[GranulePos],
    mut on_match: F,
) {
    let a_short = a.len() <= b.len();
    let (short, long) = if a_short { (a, b) } else { (b, a) };
    let mut j = 0usize;
    for (i, &x) in short.iter().enumerate() {
        j = gallop(long, j, x);
        if j == long.len() {
            break;
        }
        if long[j] == x {
            if a_short {
                on_match(x, i, j);
            } else {
                on_match(x, j, i);
            }
            j += 1;
        }
    }
}

/// Intersects two sorted support sets (the `SUP(E_1,…,E_{k-1}) ∩ SUP(E_k)`
/// step of Section IV-D 4.1).
#[must_use]
pub fn intersect(a: &[GranulePos], b: &[GranulePos]) -> SupportSet {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(&mut out, a, b);
    out
}

/// Linear-merge intersection of two strictly increasing sets: reports every
/// common value through `on_match(value, pos_in_a, pos_in_b)`. The balanced
/// counterpart of [`intersect_gallop`].
// lint: hot-path
#[inline]
fn merge_positions<F: FnMut(GranulePos, usize, usize)>(
    a: &[GranulePos],
    b: &[GranulePos],
    mut on_match: F,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                on_match(a[i], i, j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Intersects two sorted support sets into `out`, clearing it first — the
/// allocation-free form the miner threads its per-shard scratch buffers
/// through. When one side is at least `GALLOP_RATIO` (32) times longer than
/// the other, the shorter side is walked and the longer side is advanced by
/// galloping; otherwise the two sides are merged linearly.
// lint: hot-path
pub fn intersect_into(out: &mut SupportSet, a: &[GranulePos], b: &[GranulePos]) {
    out.clear();
    if gallop_regime(a, b) {
        intersect_gallop(a, b, |x, _, _| out.push(x));
    } else {
        merge_positions(a, b, |x, _, _| out.push(x));
    }
}

/// Intersects two sorted support sets into `out` while also recording, for
/// every match, its position in `a` (`pos_a`) and in `b` (`pos_b`). All
/// three buffers are cleared first and reused across calls. The positions
/// let the miner reach granule-aligned side data (instance slices in
/// `HLH_1`, binding slices in `HLH_k`) with plain offset lookups instead of
/// one binary search per matched granule. Galloping kicks in on skewed
/// sizes exactly as in [`intersect_into`].
///
/// # Panics
/// Panics when a matched position does not fit `u32`.
// lint: hot-path
pub fn intersect_positions_into(
    a: &[GranulePos],
    b: &[GranulePos],
    out: &mut SupportSet,
    pos_a: &mut Vec<u32>,
    pos_b: &mut Vec<u32>,
) {
    out.clear();
    pos_a.clear();
    pos_b.clear();
    let on_match = |x, i: usize, j: usize| {
        out.push(x);
        pos_a.push(u32::try_from(i).expect("support position fits u32"));
        pos_b.push(u32::try_from(j).expect("support position fits u32"));
    };
    if gallop_regime(a, b) {
        intersect_gallop(a, b, on_match);
    } else {
        merge_positions(a, b, on_match);
    }
}

/// Unions two sorted support sets (used when merging per-relation supports
/// back into a group-level support).
#[must_use]
pub fn union(a: &[GranulePos], b: &[GranulePos]) -> SupportSet {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Inserts a granule keeping the set sorted and duplicate-free. Appending in
/// increasing order (the common case during the single database scan) is
/// O(1).
// lint: hot-path
pub fn insert_sorted(set: &mut SupportSet, granule: GranulePos) {
    match set.last() {
        None => set.push(granule),
        Some(last) if *last < granule => set.push(granule),
        Some(last) if *last == granule => {}
        _ => {
            if let Err(pos) = set.binary_search(&granule) {
                set.insert(pos, granule);
            }
        }
    }
}

/// Bitwise-AND intersection of equal-length bitset rows into `out`, clearing
/// it first. With no rows the output is empty; one row is copied verbatim.
/// This is the one-pass replacement for probing `has_relation_between` per
/// group member: the surviving bits of the AND are exactly the events related
/// to *every* member.
///
/// # Panics
/// Panics (in debug builds) when the rows differ in length.
// lint: hot-path
pub fn intersect_rows_into(out: &mut Vec<u64>, rows: &[&[u64]]) {
    out.clear();
    let Some((first, rest)) = rows.split_first() else {
        return;
    };
    out.extend_from_slice(first);
    for row in rest {
        debug_assert_eq!(row.len(), out.len(), "bitset rows must share a length");
        for (acc, &word) in out.iter_mut().zip(row.iter()) {
            *acc &= word;
        }
    }
}

/// Iterates the indices of the set bits of a bitset, lowest first, starting
/// at bit `from`. Bit `i` is bit `i % 64` of word `i / 64`.
// lint: hot-path
pub fn iter_set_bits(words: &[u64], from: usize) -> impl Iterator<Item = usize> + '_ {
    let mut word_idx = from / 64;
    let mut current = if word_idx < words.len() {
        words[word_idx] & (!0u64 << (from % 64))
    } else {
        0
    };
    std::iter::from_fn(move || loop {
        if current != 0 {
            let bit = current.trailing_zeros() as usize;
            current &= current - 1;
            return Some(word_idx * 64 + bit);
        }
        word_idx += 1;
        if word_idx >= words.len() {
            return None;
        }
        current = words[word_idx];
    })
}

/// Relative support of a support set in a database of `dseq_len` granules.
#[must_use]
pub fn relative_support(set: &[GranulePos], dseq_len: u64) -> f64 {
    if dseq_len == 0 {
        0.0
    } else {
        set.len() as f64 / dseq_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_of_sorted_sets() {
        assert_eq!(intersect(&[1, 2, 3, 7, 8], &[2, 3, 4, 8, 9]), vec![2, 3, 8]);
        assert_eq!(intersect(&[1, 2], &[3, 4]), Vec::<u64>::new());
        assert_eq!(intersect(&[], &[1, 2]), Vec::<u64>::new());
        assert_eq!(intersect(&[1, 2, 3], &[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn intersect_into_reuses_the_buffer() {
        let mut out = vec![99, 98, 97];
        intersect_into(&mut out, &[1, 2, 3, 7, 8], &[2, 3, 4, 8, 9]);
        assert_eq!(out, vec![2, 3, 8]);
        intersect_into(&mut out, &[1, 2], &[3, 4]);
        assert!(out.is_empty());
    }

    #[test]
    fn galloping_intersection_matches_linear_merge() {
        // One side far more than GALLOP_RATIO times longer than the other.
        let long: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        let short = vec![0, 2, 3, 2_997, 14_000, 29_997, 29_998];
        let expected = vec![0, 3, 2_997, 29_997];
        let mut out = Vec::new();
        intersect_into(&mut out, &short, &long);
        assert_eq!(out, expected);
        intersect_into(&mut out, &long, &short);
        assert_eq!(out, expected);
        // An empty short side short-circuits.
        intersect_into(&mut out, &[], &long);
        assert!(out.is_empty());
    }

    #[test]
    fn positions_point_back_into_both_inputs() {
        let a = vec![1, 2, 3, 7, 8, 20];
        let b = vec![2, 3, 4, 8, 9];
        let (mut out, mut pos_a, mut pos_b) = (Vec::new(), Vec::new(), Vec::new());
        intersect_positions_into(&a, &b, &mut out, &mut pos_a, &mut pos_b);
        assert_eq!(out, vec![2, 3, 8]);
        assert_eq!(pos_a, vec![1, 2, 4]);
        assert_eq!(pos_b, vec![0, 1, 3]);
        for (m, &g) in out.iter().enumerate() {
            assert_eq!(a[pos_a[m] as usize], g);
            assert_eq!(b[pos_b[m] as usize], g);
        }
        // The same invariant holds in the galloping regime, on either side.
        let long: Vec<u64> = (0..4_000).map(|i| i * 2).collect();
        let short = vec![1, 2, 1_000, 7_998];
        for (x, y) in [(&short, &long), (&long, &short)] {
            intersect_positions_into(x, y, &mut out, &mut pos_a, &mut pos_b);
            assert_eq!(out, vec![2, 1_000, 7_998]);
            for (m, &g) in out.iter().enumerate() {
                assert_eq!(x[pos_a[m] as usize], g);
                assert_eq!(y[pos_b[m] as usize], g);
            }
        }
    }

    #[test]
    fn union_of_sorted_sets() {
        assert_eq!(union(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union(&[], &[1]), vec![1]);
        assert_eq!(union(&[1], &[]), vec![1]);
        assert_eq!(union(&[], &[]), Vec::<u64>::new());
    }

    #[test]
    fn insert_sorted_keeps_invariants() {
        let mut set = vec![];
        insert_sorted(&mut set, 5);
        insert_sorted(&mut set, 7);
        insert_sorted(&mut set, 7);
        insert_sorted(&mut set, 3);
        insert_sorted(&mut set, 6);
        insert_sorted(&mut set, 3);
        assert_eq!(set, vec![3, 5, 6, 7]);
    }

    #[test]
    fn bitset_row_intersection_and_iteration() {
        let a = [0b1011u64, u64::MAX];
        let b = [0b1110u64, 1 << 63];
        let mut out = Vec::new();
        intersect_rows_into(&mut out, &[&a, &b]);
        assert_eq!(out, vec![0b1010, 1 << 63]);
        assert_eq!(iter_set_bits(&out, 0).collect::<Vec<_>>(), vec![1, 3, 127]);
        assert_eq!(iter_set_bits(&out, 2).collect::<Vec<_>>(), vec![3, 127]);
        assert_eq!(iter_set_bits(&out, 4).collect::<Vec<_>>(), vec![127]);
        assert_eq!(iter_set_bits(&out, 128).count(), 0);
        // Single row copies; empty row list clears.
        intersect_rows_into(&mut out, &[&a]);
        assert_eq!(out, a.to_vec());
        intersect_rows_into(&mut out, &[]);
        assert!(out.is_empty());
        assert_eq!(iter_set_bits(&out, 0).count(), 0);
        // A word-boundary start index must not mask the wrong word.
        let c = [0u64, 0b101u64];
        assert_eq!(iter_set_bits(&c, 64).collect::<Vec<_>>(), vec![64, 66]);
        assert_eq!(iter_set_bits(&c, 65).collect::<Vec<_>>(), vec![66]);
        // Against a naive word-by-word AND: edge row lengths (empty, single,
        // each side of every power of two up to 64 words) in three shapes —
        // all-match rows, no-match rows and random words from a fixed
        // xorshift stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64] {
            for shape in 0..3 {
                for n_rows in 1..=3 {
                    let rows: Vec<Vec<u64>> = (0..n_rows)
                        .map(|r| {
                            (0..len)
                                .map(|_| match shape {
                                    0 => u64::MAX,
                                    1 if r == n_rows - 1 => 0,
                                    _ => next(),
                                })
                                .collect()
                        })
                        .collect();
                    let expect: Vec<u64> = (0..len)
                        .map(|w| rows.iter().fold(u64::MAX, |acc, row| acc & row[w]))
                        .collect();
                    let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
                    intersect_rows_into(&mut out, &refs);
                    assert_eq!(out, expect, "len {len} shape {shape} rows {n_rows}");
                }
            }
        }
    }

    #[test]
    fn relative_support_bounds() {
        assert!((relative_support(&[1, 2, 3], 10) - 0.3).abs() < 1e-12);
        assert_eq!(relative_support(&[1, 2], 0), 0.0);
        assert_eq!(relative_support(&[], 10), 0.0);
    }
}
