//! Clustering quality metrics: silhouette score and adjusted Rand index.
//!
//! The paper has no ground truth for the similar relation ("There is no
//! ground truth dataset to validate the similarity relationship", §III-C)
//! and falls back to manual inspection. The simulator *does* know the
//! truth (which campaign generated each package), so the reproduction can
//! quantify what the paper could not: ARI against ground-truth campaigns
//! and silhouette for internal cohesion. Both feed the validation tests
//! and the embedding-dimension ablation bench.

/// Mean silhouette coefficient over all points, in `[-1, 1]`.
///
/// Returns `None` when silhouette is undefined: fewer than 2 clusters or
/// fewer than 2 points.
///
/// # Panics
///
/// Panics if `assignments.len() != data.len()` or any label is out of
/// range.
pub fn silhouette<P: AsRef<[f32]>>(data: &[P], assignments: &[usize], k: usize) -> Option<f32> {
    assert_eq!(data.len(), assignments.len(), "label/point count mismatch");
    assert!(
        assignments.iter().all(|&a| a < k),
        "assignment out of range"
    );
    if k < 2 || data.len() < 2 {
        return None;
    }

    let mut members = vec![Vec::new(); k];
    for (i, &a) in assignments.iter().enumerate() {
        members[a].push(i);
    }

    let dist = |i: usize, j: usize| -> f32 {
        data[i]
            .as_ref()
            .iter()
            .zip(data[j].as_ref())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum::<f32>()
            .sqrt()
    };

    let mut total = 0.0f32;
    let mut counted = 0usize;
    for (i, &own) in assignments.iter().enumerate() {
        if members[own].len() <= 1 {
            // Singleton clusters contribute silhouette 0 by convention.
            counted += 1;
            continue;
        }
        let a: f32 = members[own]
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| dist(i, j))
            .sum::<f32>()
            / (members[own].len() - 1) as f32;
        let b = (0..k)
            .filter(|&c| c != own && !members[c].is_empty())
            .map(|c| members[c].iter().map(|&j| dist(i, j)).sum::<f32>() / members[c].len() as f32)
            .fold(f32::INFINITY, f32::min);
        if b.is_finite() {
            let s = (b - a) / a.max(b);
            total += s;
        }
        counted += 1;
    }
    if counted == 0 {
        None
    } else {
        Some(total / counted as f32)
    }
}

/// Adjusted Rand index between two labelings, 1.0 for identical
/// partitions, ~0.0 for independent ones.
///
/// # Panics
///
/// Panics if the labelings have different lengths or are empty.
pub fn adjusted_rand_index(labels_a: &[usize], labels_b: &[usize]) -> f64 {
    assert_eq!(labels_a.len(), labels_b.len(), "labeling length mismatch");
    assert!(!labels_a.is_empty(), "labelings must be non-empty");
    let n = labels_a.len();
    let ka = labels_a.iter().max().expect("non-empty") + 1;
    let kb = labels_b.iter().max().expect("non-empty") + 1;

    // Contingency table.
    let mut table = vec![vec![0u64; kb]; ka];
    for (&a, &b) in labels_a.iter().zip(labels_b) {
        table[a][b] += 1;
    }
    let choose2 = |x: u64| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };

    let sum_ij: f64 = table
        .iter()
        .flat_map(|row| row.iter())
        .map(|&c| choose2(c))
        .sum();
    let sum_a: f64 = table
        .iter()
        .map(|row| choose2(row.iter().sum::<u64>()))
        .sum();
    let sum_b: f64 = (0..kb)
        .map(|j| choose2(table.iter().map(|row| row[j]).sum::<u64>()))
        .sum();
    let total = choose2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = (sum_a + sum_b) / 2.0;
    if (max_index - expected).abs() < f64::EPSILON {
        return 1.0; // both partitions are trivial and identical in structure
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silhouette_high_for_separated_blobs() {
        let data = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![10.0, 10.0],
            vec![10.2, 10.1],
            vec![10.1, 10.2],
        ];
        let labels = vec![0, 0, 0, 1, 1, 1];
        let s = silhouette(&data, &labels, 2).unwrap();
        assert!(s > 0.9, "expected near-perfect silhouette, got {s}");
    }

    #[test]
    fn silhouette_low_for_bad_split() {
        let data = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![10.0, 10.0],
            vec![10.2, 10.1],
        ];
        let bad = vec![0, 1, 0, 1]; // splits both blobs across clusters
        let s = silhouette(&data, &bad, 2).unwrap();
        assert!(s < 0.0, "bad split should be negative, got {s}");
    }

    #[test]
    fn silhouette_undefined_for_one_cluster() {
        let data = vec![vec![0.0], vec![1.0]];
        assert!(silhouette(&data, &[0, 0], 1).is_none());
    }

    #[test]
    fn silhouette_singletons_are_zero() {
        let data = vec![vec![0.0], vec![5.0]];
        let s = silhouette(&data, &[0, 1], 2).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn ari_identical_partitions() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-9);
        // Label permutation does not matter.
        let b = vec![2, 2, 0, 0, 1, 1];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ari_disagreement_is_low() {
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 1, 0, 1, 0, 1];
        assert!(adjusted_rand_index(&a, &b) < 0.3);
    }

    #[test]
    fn ari_partial_agreement_is_intermediate() {
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 0, 0, 1, 1, 1, 1, 1]; // one point moved
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari > 0.3 && ari < 1.0, "ari {ari}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ari_length_mismatch_panics() {
        adjusted_rand_index(&[0, 1], &[0]);
    }
}
