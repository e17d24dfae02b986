//! Small deterministic helpers shared across crates.

use crate::id::ProcessId;

/// Sorts process identifiers by a distance function, breaking ties by
/// identifier so the result is deterministic.
///
/// Used by the simulator to order sites by distance.
pub fn sort_by_distance(
    processes: impl IntoIterator<Item = ProcessId>,
    mut distance: impl FnMut(ProcessId) -> u64,
) -> Vec<ProcessId> {
    let mut with_distance: Vec<(u64, ProcessId)> =
        processes.into_iter().map(|p| (distance(p), p)).collect();
    with_distance.sort_unstable();
    with_distance.into_iter().map(|(_, p)| p).collect()
}

/// Computes the mean of an iterator of `f64` values, or 0.0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Computes the population standard deviation of a slice of `f64` values.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values.iter().copied());
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_by_distance_is_deterministic_with_ties() {
        let sorted = sort_by_distance([3, 1, 2], |_| 10);
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn sort_by_distance_orders_by_distance_first() {
        let sorted = sort_by_distance([1, 2, 3, 4], |p| match p {
            2 => 0,
            4 => 5,
            _ => 100,
        });
        assert_eq!(sorted, vec![2, 4, 1, 3]);
    }

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-9);
    }
}
