//! Contiguous work stripes for the striped builders (DESIGN.md §11).
//!
//! Every striped pass in the workspace — the RMAT sampler and weight
//! generators, [`crate::GraphBuilder`], and `ampc_core::prim`'s packs
//! and adjacency builders — splits its input into contiguous ranges,
//! one part each of an [`ampc_dht::pool::par_map`]: the process-wide
//! pool that also runs the executor's machines and the dense seal,
//! inline at one thread. A part carries its range and its own
//! [`windows_mut`] window of a buffer the caller sized, and writes only
//! there, so the output is the same for every thread count.

use std::ops::Range;

/// Splits `0..n` into at most `parts` contiguous, near-equal, non-empty
/// ranges, in order.
pub fn stripe_bounds(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let per = n.div_ceil(parts);
    (0..parts)
        .map(|i| (i * per).min(n)..((i + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Splits the vertices of a CSR `offsets` array into at most `parts`
/// contiguous ranges holding near-equal numbers of **arcs**. Skewed
/// graphs put most arcs on few vertices (the `tw` analogue's largest
/// list has 31 594 entries against a mean of 90), so equal-vertex
/// ranges would leave one stripe with most of the work.
pub fn arc_balanced_stripes(offsets: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    let arcs = offsets[n];
    let mut stripes = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 1..=parts {
        let end = if i == parts {
            n
        } else {
            offsets.partition_point(|&o| o < arcs * i / parts).min(n)
        };
        if end > start {
            stripes.push(start..end);
            start = end;
        }
    }
    stripes
}

/// Cuts `buf` into consecutive windows of the given lengths, in order:
/// the disjoint `&mut` pieces a striped pass hands its parts.
///
/// # Panics
/// If the lengths add up to more than `buf.len()`.
pub fn windows_mut<T>(mut buf: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (win, rest) = std::mem::take(&mut buf).split_at_mut(len);
            buf = rest;
            win
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_balance_arcs_not_vertices() {
        // One hub holding half the arcs: it gets a stripe of its own.
        let offsets = [0, 100, 101, 102, 103, 200];
        assert_eq!(arc_balanced_stripes(&offsets, 2), vec![0..1, 1..5]);
        assert_eq!(arc_balanced_stripes(&offsets, 1), vec![0..5]);
        assert_eq!(arc_balanced_stripes(&[0, 0, 0], 4), vec![0..2]);
        assert!(arc_balanced_stripes(&[0], 4).is_empty());
    }
}
