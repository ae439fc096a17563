//! In-memory dataset container.

use fedval_linalg::{vector, Matrix};
use std::sync::OnceLock;

/// A supervised classification dataset: an `n × d` feature matrix plus
/// integer labels in `0..num_classes`.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
    /// The features lane-packed ([`packed_features`](Self::packed_features)),
    /// built on first use. Every `&mut` path drops it.
    packed: OnceLock<Vec<f64>>,
}

impl Dataset {
    /// Builds a dataset, validating that shapes agree and every label is in
    /// range.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Result<Self, String> {
        if features.rows() != labels.len() {
            return Err(format!(
                "feature rows ({}) != label count ({})",
                features.rows(),
                labels.len()
            ));
        }
        if num_classes == 0 {
            return Err("num_classes must be positive".to_string());
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(format!("label {bad} out of range 0..{num_classes}"));
        }
        Ok(Dataset {
            features,
            labels,
            num_classes,
            packed: OnceLock::new(),
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Mutable feature matrix (used by the noise injectors). Drops the
    /// packed copy.
    pub fn features_mut(&mut self) -> &mut Matrix {
        self.packed.take();
        &mut self.features
    }

    /// The feature rows lane-packed for the one-pass logistic loss
    /// ([`vector::pack_rows`]). Built on the first call and kept until a
    /// `&mut` method drops it: [`features_mut`](Self::features_mut),
    /// [`labels_mut`](Self::labels_mut), or
    /// [`subset_into`](Self::subset_into) on this dataset as its target.
    pub fn packed_features(&self) -> &[f64] {
        self.packed
            .get_or_init(|| vector::pack_rows(self.features.as_slice(), self.dim()))
    }

    /// Labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Mutable labels (used by the label-flip injector). Drops the
    /// packed copy.
    pub fn labels_mut(&mut self) -> &mut [usize] {
        self.packed.take();
        &mut self.labels
    }

    /// Feature row of example `i`.
    pub fn example(&self, i: usize) -> (&[f64], usize) {
        (self.features.row(i), self.labels[i])
    }

    /// Builds a new dataset from a subset of example indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let d = self.dim();
        let mut feat = Matrix::zeros(indices.len(), d);
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &idx) in indices.iter().enumerate() {
            feat.row_mut(row).copy_from_slice(self.features.row(idx));
            labels.push(self.labels[idx]);
        }
        Dataset {
            features: feat,
            labels,
            num_classes: self.num_classes,
            packed: OnceLock::new(),
        }
    }

    /// [`subset`](Dataset::subset) into a caller-provided dataset,
    /// reusing its buffers — the allocation-free form the minibatch SGD
    /// loop calls once per step. `out`'s previous shape is irrelevant;
    /// it is resized to `indices.len() × self.dim()`.
    pub fn subset_into(&self, indices: &[usize], out: &mut Dataset) {
        let d = self.dim();
        out.packed.take();
        out.num_classes = self.num_classes;
        // Every row is copied below; skip the zero-fill pass.
        out.features.resize_for_overwrite(indices.len(), d);
        out.labels.clear();
        for (row, &idx) in indices.iter().enumerate() {
            out.features
                .row_mut(row)
                .copy_from_slice(self.features.row(idx));
            out.labels.push(self.labels[idx]);
        }
    }

    /// Splits into `(first, second)` where `first` holds `n_first` examples.
    pub fn split_at(&self, n_first: usize) -> (Dataset, Dataset) {
        let n = self.len().min(n_first);
        let first: Vec<usize> = (0..n).collect();
        let second: Vec<usize> = (n..self.len()).collect();
        (self.subset(&first), self.subset(&second))
    }

    /// Per-class example counts (useful for partition diagnostics).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Concatenates several datasets that share schema.
    pub fn concat(parts: &[&Dataset]) -> Result<Dataset, String> {
        let first = parts.first().ok_or("concat of zero datasets")?;
        let d = first.dim();
        let c = first.num_classes;
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut feat = Matrix::zeros(total, d);
        let mut labels = Vec::with_capacity(total);
        let mut row = 0;
        for p in parts {
            if p.dim() != d || p.num_classes != c {
                return Err("concat schema mismatch".to_string());
            }
            for i in 0..p.len() {
                feat.row_mut(row).copy_from_slice(p.features.row(i));
                labels.push(p.labels[i]);
                row += 1;
            }
        }
        Ok(Dataset {
            features: feat,
            labels,
            num_classes: c,
            packed: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let f = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 3.0], &[4.0, 5.0]]).unwrap();
        Dataset::new(f, vec![0, 1, 0], 2).unwrap()
    }

    #[test]
    fn new_validates_shapes() {
        let f = Matrix::zeros(2, 3);
        assert!(Dataset::new(f.clone(), vec![0], 2).is_err());
        assert!(Dataset::new(f.clone(), vec![0, 5], 2).is_err());
        assert!(Dataset::new(f, vec![0, 1], 0).is_err());
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_classes(), 2);
        let (x, y) = d.example(1);
        assert_eq!(x, &[2.0, 3.0]);
        assert_eq!(y, 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn subset_picks_rows_in_order() {
        let d = tiny();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.example(0).0, &[4.0, 5.0]);
        assert_eq!(s.example(1).0, &[0.0, 1.0]);
        assert_eq!(s.labels(), &[0, 0]);
    }

    #[test]
    fn subset_into_matches_subset_and_reuses_buffers() {
        let d = tiny();
        let mut out = d.subset(&[]);
        d.subset_into(&[2, 0], &mut out);
        let expect = d.subset(&[2, 0]);
        assert_eq!(out.features().as_slice(), expect.features().as_slice());
        assert_eq!(out.labels(), expect.labels());
        assert_eq!(out.num_classes(), expect.num_classes());
        // Refill with a different selection: buffers are recycled.
        d.subset_into(&[1], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.example(0).0, &[2.0, 3.0]);
    }

    #[test]
    fn packed_features_unpack_to_the_rows_and_follow_every_mutation() {
        let unpack = |d: &Dataset| -> Vec<f64> {
            let (n, k, packed) = (d.len(), d.dim(), d.packed_features());
            assert_eq!(packed.len(), vector::packed_len(n, k));
            let block = vector::PACK_ROWS * k;
            let mut rows = Vec::with_capacity(n * k);
            for r in 0..n {
                let b = &packed[r / vector::PACK_ROWS * block..][..block];
                rows.extend((0..k).map(|kk| b[kk * vector::PACK_ROWS + r % vector::PACK_ROWS]));
            }
            // A partial last block repeats the last row in its spare lanes.
            for pad in n..n.next_multiple_of(vector::PACK_ROWS) {
                let b = &packed[pad / vector::PACK_ROWS * block..][..block];
                let spare: Vec<f64> = (0..k)
                    .map(|kk| b[kk * vector::PACK_ROWS + pad % vector::PACK_ROWS])
                    .collect();
                assert_eq!(spare, d.example(n - 1).0, "spare lane {pad} of {n} rows");
            }
            rows
        };
        for n in (0..=17).chain([160, 255, 256, 257]) {
            let f = Matrix::from_fn(n, 3, |r, c| (r * 3 + c) as f64 + 0.5);
            let mut d = Dataset::new(f, vec![0; n], 2).unwrap();
            assert_eq!(unpack(&d), d.features().as_slice(), "{n} rows");
            if n == 0 {
                continue;
            }
            d.features_mut().row_mut(n - 1)[1] = -7.0;
            assert_eq!(unpack(&d), d.features().as_slice(), "{n} rows, edited");
            let picks: Vec<usize> = (0..n).rev().collect();
            let (mut out, want) = (d.subset(&[0]), d.subset(&picks));
            assert_eq!(unpack(&out), out.features().as_slice());
            d.subset_into(&picks, &mut out);
            assert_eq!(
                unpack(&out),
                want.features().as_slice(),
                "{n} rows, refilled"
            );
        }
    }

    #[test]
    fn split_at_partitions() {
        let d = tiny();
        let (a, b) = d.split_at(2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.example(0).0, &[4.0, 5.0]);
    }

    #[test]
    fn split_at_clamps() {
        let d = tiny();
        let (a, b) = d.split_at(10);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn class_counts_counts() {
        assert_eq!(tiny().class_counts(), vec![2, 1]);
    }

    #[test]
    fn concat_appends() {
        let d = tiny();
        let c = Dataset::concat(&[&d, &d]).unwrap();
        assert_eq!(c.len(), 6);
        assert_eq!(c.example(3).0, &[0.0, 1.0]);
    }

    #[test]
    fn concat_rejects_schema_mismatch() {
        let d = tiny();
        let other = Dataset::new(Matrix::zeros(1, 3), vec![0], 2).unwrap();
        assert!(Dataset::concat(&[&d, &other]).is_err());
        assert!(Dataset::concat(&[]).is_err());
    }
}
